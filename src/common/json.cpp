#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace json {

namespace {

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
    case Value::Kind::Null:
        return "null";
    case Value::Kind::Bool:
        return "bool";
    case Value::Kind::Number:
        return "number";
    case Value::Kind::String:
        return "string";
    case Value::Kind::Array:
        return "array";
    case Value::Kind::Object:
        return "object";
    }
    return "unknown";
}

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

/** Append @p s with jsonEscape()'s rules; runs of plain bytes copy whole. */
void
appendEscaped(std::string &out, std::string_view s)
{
    size_t plain = 0; // start of the pending run of plain bytes
    for (size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
            out.append(esc, sizeof esc);
          }
        }
    }
    out.append(s.data() + plain, s.size() - plain);
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is %s, expected bool", kindName(kind_));
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is %s, expected number", kindName(kind_));
    return num_;
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is %s, expected string", kindName(kind_));
    return str_;
}

const Array &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is %s, expected array", kindName(kind_));
    return *arr_;
}

const Object &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is %s, expected object", kindName(kind_));
    return *obj_;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    const auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return (v && v->isNumber()) ? v->asNumber() : fallback;
}

std::string
Value::stringOr(const std::string &key,
                const std::string &fallback) const
{
    const Value *v = find(key);
    return (v && v->isString()) ? v->asString() : fallback;
}

Value
parse(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

Value
parseFile(const std::string &path)
{
    return parse(readTextFile(path));
}

void
Writer::newline(int depth)
{
    out_ += '\n';
    out_.append(static_cast<size_t>(2 * depth), ' ');
}

void
Writer::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    Frame &f = stack_[depth_ - 1];
    if (!f.empty)
        out_ += layout_ == Layout::Document && !f.rows ? ", " : ",";
    f.empty = false;
    if (f.rows)
        newline(depth_);
}

Writer &
Writer::open(char opening, char closing, bool rows)
{
    separate();
    require(depth_ < kMaxDepth, "json::Writer: nesting too deep");
    // The top-level container of a Document is laid out in lines.
    const bool lines =
        layout_ == Layout::Document && (rows || depth_ == 0);
    stack_[depth_++] = Frame{closing, lines, true};
    out_ += opening;
    return *this;
}

Writer &
Writer::end()
{
    require(depth_ > 0 && !after_key_,
            "json::Writer: end() with no open container or a "
            "dangling key");
    const Frame &f = stack_[--depth_];
    if (f.rows)
        newline(depth_);
    out_ += f.close;
    if (depth_ == 0 && layout_ == Layout::Document)
        out_ += '\n';
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    require(depth_ > 0 && stack_[depth_ - 1].close == '}' &&
                !after_key_,
            "json::Writer: key() outside an object");
    value(name);
    out_ += layout_ == Layout::Document ? ": " : ":";
    after_key_ = true;
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    separate();
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
    return *this;
}

Writer &
Writer::floating(double v, int precision, bool fixed)
{
    if (!std::isfinite(v))
        return raw("0");
    // Fixed notation of the largest double needs 309 integer digits.
    char buf[512];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, v,
        fixed ? std::chars_format::fixed : std::chars_format::general,
        precision);
    require(r.ec == std::errc(), "json::Writer: number too long");
    return raw(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
}

Writer &
Writer::raw(std::string_view json)
{
    separate();
    out_.append(json);
    return *this;
}

} // namespace json

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    json::appendEscaped(out, s);
    return out;
}

} // namespace autobraid
