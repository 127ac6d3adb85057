/**
 * @file
 * Test-only reference for the JSON reader and the two document
 * decoders.
 *
 * These are the recursive-descent `Parser` that built a json::Value
 * tree of the whole document, and the `decodeSchedule` and
 * `decodeRecording` that read a schedule and a recording from that
 * tree, as the library had them before json::Reader, copied unchanged
 * apart from `inline`, the namespace, using-declarations for the json
 * types and namespace qualifiers on the library types they name.
 * Tests compare the library against them: for every document, the
 * same decoded value or the same UserError text.
 */

#ifndef AUTOBRAID_TESTS_JSON_REFERENCE_HPP
#define AUTOBRAID_TESTS_JSON_REFERENCE_HPP

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "analysis/certify.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/recorder.hpp"

namespace autobraid {
namespace reference {

using json::Array;
using json::Object;
using json::Value;

/** Recursive-descent parser over the whole input string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parseDocument()
    {
        skipWs();
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after JSON value");
        return v;
    }

  private:
    // Containers may nest at most this deep; recursive descent means
    // unbounded input depth would otherwise exhaust the stack.
    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;

    [[noreturn]] void fail(const char *what)
    {
        size_t line = 1;
        size_t col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("JSON parse error at line %zu column %zu (byte %zu): "
              "%s",
              line, col, pos_, what);
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skipWs()
    {
        while (!eof()) {
            const char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void expect(char c)
    {
        if (eof() || peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool consumeWord(const char *word)
    {
        size_t len = 0;
        while (word[len])
            ++len;
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Value parseValue()
    {
        if (eof())
            fail("unexpected end of input");
        switch (peek()) {
        case '{': {
            if (++depth_ > kMaxDepth)
                fail("nesting depth exceeds 64");
            Value v = parseObject();
            --depth_;
            return v;
        }
        case '[': {
            if (++depth_ > kMaxDepth)
                fail("nesting depth exceeds 64");
            Value v = parseArray();
            --depth_;
            return v;
        }
        case '"':
            return Value(parseString());
        case 't':
            if (!consumeWord("true"))
                fail("invalid literal");
            return Value(true);
        case 'f':
            if (!consumeWord("false"))
                fail("invalid literal");
            return Value(false);
        case 'n':
            if (!consumeWord("null"))
                fail("invalid literal");
            return Value();
        default:
            return parseNumber();
        }
    }

    Value parseObject()
    {
        expect('{');
        Object members;
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return Value(std::move(members));
        }
        for (;;) {
            skipWs();
            if (eof() || peek() != '"')
                fail("expected object key");
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            members[std::move(key)] = parseValue();
            skipWs();
            if (eof())
                fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(members));
        }
    }

    Value parseArray()
    {
        expect('[');
        Array items;
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return Value(std::move(items));
        }
        for (;;) {
            skipWs();
            items.push_back(parseValue());
            skipWs();
            if (eof())
                fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(items));
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (eof())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (eof())
                fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
            case '"':
            case '\\':
            case '/':
                out += c;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                unsigned code = readHex4();
                if (code >= 0xDC00 && code <= 0xDFFF)
                    fail("lone low surrogate in \\u escape");
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // A high surrogate is only valid when paired with
                    // an immediately following \u low surrogate.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        fail("lone high surrogate in \\u escape");
                    pos_ += 2;
                    const unsigned lo = readHex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("high surrogate not followed by low "
                             "surrogate in \\u escape");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (lo - 0xDC00);
                }
                // UTF-8 encode; our exporters only emit \u00XX
                // control escapes, but accept the full code-point
                // range including supplementary-plane pairs.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else if (code < 0x10000) {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xF0 | (code >> 18));
                    out += static_cast<char>(0x80 |
                                             ((code >> 12) & 0x3F));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
    }

    unsigned readHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            if (eof())
                fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return code;
    }

    Value parseNumber()
    {
        const size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        while (!eof()) {
            const char c = peek();
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            fail("malformed number");
        // JSON has no NaN/Infinity; also reject finite-looking
        // tokens that overflow to infinity (e.g. 1e999).
        if (!std::isfinite(v))
            fail("number is not finite");
        return Value(v);
    }
};

inline Value
parse(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

// ---- decodeSchedule -------------------------------------------------

inline const json::Value &
need(const json::Value &doc, const char *key)
{
    const json::Value *v = doc.find(key);
    if (!v)
        fatal("schedule document is missing \"%s\"", key);
    return *v;
}

/**
 * @p v as an Int. The range is checked on the double, before the cast:
 * lowest() and max() + 1 are powers of two, so both are exact.
 */
template <typename Int>
inline Int
asInt(const json::Value &v, const char *what)
{
    const double d = v.asNumber();
    using Limits = std::numeric_limits<Int>;
    if (!(d >= static_cast<double>(Limits::lowest()) &&
          d < std::ldexp(1.0, Limits::digits)))
        fatal("schedule field \"%s\" is out of range (%.17g)", what, d);
    const Int i = static_cast<Int>(d);
    if (static_cast<double>(i) != d)
        fatal("schedule field \"%s\" is not an integer", what);
    return i;
}

template <typename Int>
inline Int
needInt(const json::Value &doc, const char *key)
{
    return asInt<Int>(need(doc, key), key);
}

/** Reverse of gateName(); fatal on an unknown mnemonic. */
inline GateKind
kindFromName(const std::string &name)
{
    static const GateKind kAll[] = {
        GateKind::I,       GateKind::X,  GateKind::Y,
        GateKind::Z,       GateKind::H,  GateKind::S,
        GateKind::Sdg,     GateKind::T,  GateKind::Tdg,
        GateKind::RX,      GateKind::RY, GateKind::RZ,
        GateKind::Measure, GateKind::CX, GateKind::Swap,
        GateKind::Barrier};
    for (GateKind k : kAll)
        if (name == gateName(k))
            return k;
    fatal("schedule gate list has unknown kind \"%s\"", name.c_str());
}

inline certify::Schedule
decodeSchedule(const json::Value &doc)
{
    if (need(doc, "format").asString() != "autobraid-schedule")
        fatal("not an autobraid-schedule document (format \"%s\")",
              doc.stringOr("format", "?").c_str());
    const int version = needInt<int>(doc, "version");
    if (version != 1)
        fatal("unsupported autobraid-schedule version %d", version);

    certify::Schedule s;
    s.circuit = need(doc, "circuit").asString();
    s.policy = need(doc, "policy").asString();
    s.backend = need(doc, "backend").asString();
    s.distance = needInt<int>(doc, "distance");
    s.grid_rows = needInt<int>(doc, "grid_rows");
    s.grid_cols = needInt<int>(doc, "grid_cols");
    s.num_qubits = needInt<int>(doc, "num_qubits");
    s.channel_hold_cycles = needInt<Cycles>(doc, "channel_hold_cycles");
    s.used_maslov = need(doc, "used_maslov").asBool();
    s.swaps_inserted = needInt<size_t>(doc, "swaps_inserted");
    s.braids_routed = needInt<size_t>(doc, "braids_routed");
    s.makespan = needInt<Cycles>(doc, "makespan");
    for (const json::Value &jv : need(doc, "dead_vertices").asArray())
        s.dead_vertices.push_back(asInt<VertexId>(jv, "dead"));
    if (const json::Value *placement = doc.find("placement")) {
        s.placement.emplace();
        for (const json::Value &jc : placement->asArray())
            s.placement->push_back(asInt<CellId>(jc, "placement"));
    }
    for (const json::Value &jg : need(doc, "gates").asArray()) {
        Gate g;
        g.kind = kindFromName(need(jg, "kind").asString());
        g.q0 = needInt<Qubit>(jg, "q0");
        g.q1 = needInt<Qubit>(jg, "q1");
        s.gates.push_back(g);
    }
    for (const json::Value &je : need(doc, "schedule").asArray()) {
        certify::Entry e;
        e.gate = needInt<long long>(je, "gate");
        e.start = needInt<Cycles>(je, "start");
        e.finish = needInt<Cycles>(je, "finish");
        e.release = needInt<Cycles>(je, "release");
        if (const json::Value *a = je.find("swap_a"))
            e.swap_a = asInt<Qubit>(*a, "swap_a");
        if (const json::Value *b = je.find("swap_b"))
            e.swap_b = asInt<Qubit>(*b, "swap_b");
        for (const json::Value &jv : need(je, "path").asArray())
            e.path.push_back(asInt<VertexId>(jv, "path"));
        s.entries.push_back(std::move(e));
    }
    return s;
}

// ---- decodeRecording ------------------------------------------------

inline const json::Value &
field(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v)
        fatal("recording is missing \"%s\"", key);
    return *v;
}

inline const std::string &
text(const json::Value &obj, const char *key)
{
    const json::Value &v = field(obj, key);
    if (!v.isString())
        fatal("recording field \"%s\" is not a string", key);
    return v.asString();
}

inline const json::Array &
list(const json::Value &obj, const char *key)
{
    const json::Value &v = field(obj, key);
    if (!v.isArray())
        fatal("recording field \"%s\" is not an array", key);
    return v.asArray();
}

// 2^64, 2^32 and 2^31: one past the largest uint64_t, uint32_t and int.
constexpr double kU64Limit = 18446744073709551616.0;
constexpr double kU32Limit = 4294967296.0;
constexpr double kIntLimit = 2147483648.0;

/** @p v as an integer in [0, @p limit), checked before the cast. */
inline uint64_t
natural(const json::Value &v, const char *what, double limit)
{
    const double d = v.isNumber() ? v.asNumber() : -1.0;
    if (d >= 0.0 && d < limit) {
        const auto n = static_cast<uint64_t>(d);
        if (static_cast<double>(n) == d)
            return n;
    }
    fatal("recording field \"%s\" must be an integer in [0, %.0f)", what,
          limit);
}

inline uint64_t
naturalAt(const json::Value &obj, const char *key,
          double limit = kU64Limit)
{
    return natural(field(obj, key), key, limit);
}

/** A gate operand: -1 (none) or an index below @p vertices. */
inline int32_t
operand(const json::Value &gate, const char *key, uint64_t vertices)
{
    const json::Value &v = field(gate, key);
    if (v.isNumber() && v.asNumber() == -1.0)
        return -1;
    return static_cast<int32_t>(natural(
        v, key, std::min(static_cast<double>(vertices), kIntLimit)));
}

inline void
stalls(const json::Value &obj, const char *key, uint64_t *by_cause)
{
    const json::Value &causes = field(obj, key);
    for (size_t c = 0; c < telemetry::kNumStallCauses; ++c)
        by_cause[c] = naturalAt(
            causes, telemetry::stallCauseName(
                        static_cast<telemetry::StallCause>(c)));
}

inline telemetry::StallCause
causeNamed(const std::string &name)
{
    for (size_t c = 0; c < telemetry::kNumStallCauses; ++c)
        if (name == telemetry::stallCauseName(
                        static_cast<telemetry::StallCause>(c)))
            return static_cast<telemetry::StallCause>(c);
    fatal("recording has unknown stall cause \"%s\"", name.c_str());
}

inline telemetry::FlightRecording
decodeRecording(const json::Value &doc)
{
    if (doc.stringOr("format", "") != "autobraid-recording")
        fatal("not an autobraid recording (missing "
              "\"format\":\"autobraid-recording\")");
    const uint64_t version = naturalAt(doc, "version");
    if (version != 1)
        fatal("unsupported recording version %llu",
              static_cast<unsigned long long>(version));

    telemetry::FlightRecording rec;
    rec.circuit = text(doc, "circuit");
    rec.policy = text(doc, "policy");
    rec.backend = text(doc, "backend");
    rec.grid_rows =
        static_cast<int>(naturalAt(doc, "grid_rows", kIntLimit));
    rec.grid_cols =
        static_cast<int>(naturalAt(doc, "grid_cols", kIntLimit));
    rec.makespan = naturalAt(doc, "makespan");
    stalls(doc, "stall_totals", rec.stall_totals);

    const uint64_t vertices = static_cast<uint64_t>(rec.grid_rows) *
                              static_cast<uint64_t>(rec.grid_cols);
    const json::Array &busy = list(doc, "vertex_busy_cycles");
    if (busy.size() != vertices)
        fatal("recording field \"vertex_busy_cycles\" has %zu entries "
              "for grid_rows x grid_cols %dx%d",
              busy.size(), rec.grid_rows, rec.grid_cols);
    rec.vertex_busy_cycles.reserve(busy.size());
    for (const json::Value &v : busy)
        rec.vertex_busy_cycles.push_back(
            natural(v, "vertex_busy_cycles", kU64Limit));

    const json::Array &gates = list(doc, "gates");
    rec.gates.reserve(gates.size());
    for (const json::Value &g : gates) {
        if (naturalAt(g, "gate") != rec.gates.size())
            fatal("recording gate %zu is out of order",
                  rec.gates.size());
        telemetry::GateRecord &gate = rec.gates.emplace_back();
        gate.kind = text(g, "kind");
        gate.q0 = operand(g, "q0", vertices);
        gate.q1 = operand(g, "q1", vertices);
        for (const auto &[key, cycle] :
             {std::pair{"ready", &gate.ready},
              std::pair{"dispatched", &gate.dispatched},
              std::pair{"retired", &gate.retired}})
            if (const json::Value *v = g.find(key))
                *cycle = natural(*v, key, kU64Limit);
        gate.blocked_attempts = static_cast<uint32_t>(
            naturalAt(g, "blocked_attempts", kU32Limit));
        stalls(g, "stall", gate.stall);
    }

    for (const json::Value &ev : list(doc, "blocked_events"))
        rec.blocked.push_back(
            telemetry::BlockedEvent{naturalAt(ev, "gate"),
                                    naturalAt(ev, "cycle"),
                                    causeNamed(text(ev, "cause"))});
    return rec;
}

} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_JSON_REFERENCE_HPP
