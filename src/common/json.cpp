#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
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

/** Bytes a number token may hold; strtod then judges the token. */
bool
isNumberByte(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
}

/** Append code point @p code to @p out as UTF-8. */
void
appendUtf8(std::string &out, unsigned code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
    }
}

/** The value at @p r's cursor as a tree. */
Value
readValue(Reader &r)
{
    switch (r.peek()) {
    case Value::Kind::Object: {
        Object members;
        r.beginObject();
        for (std::string_view key; r.nextKey(key);) {
            std::string name(key);
            members[std::move(name)] = readValue(r);
        }
        return Value(std::move(members));
    }
    case Value::Kind::Array: {
        Array items;
        r.beginArray();
        while (r.nextElement())
            items.push_back(readValue(r));
        return Value(std::move(items));
    }
    case Value::Kind::String:
        return Value(std::string(r.string()));
    case Value::Kind::Bool:
        return Value(r.boolean());
    case Value::Kind::Null:
        r.null();
        return Value();
    case Value::Kind::Number:
        break;
    }
    return Value(r.number());
}

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

void
Reader::fail(const char *what) const
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
    fatal("JSON parse error at line %zu column %zu (byte %zu): %s", line,
          col, pos_, what);
}

void
Reader::skipWs()
{
    while (!eof()) {
        const char c = text_[pos_];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            break;
        ++pos_;
    }
}

void
Reader::expect(char c)
{
    if (eof() || text_[pos_] != c)
        fail("unexpected character");
    ++pos_;
}

void
Reader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        fail("invalid literal");
    pos_ += word.size();
}

Value::Kind
Reader::peek()
{
    skipWs();
    if (eof())
        fail("unexpected end of input");
    switch (text_[pos_]) {
    case '{':
        return Value::Kind::Object;
    case '[':
        return Value::Kind::Array;
    case '"':
        return Value::Kind::String;
    case 't':
    case 'f':
        return Value::Kind::Bool;
    case 'n':
        return Value::Kind::Null;
    default:
        return Value::Kind::Number;
    }
}

void
Reader::open(char bracket)
{
    skipWs();
    // The cap bounds every reader that recurses once per level.
    if (depth_ == kMaxDepth)
        fail("nesting depth exceeds 64");
    expect(bracket);
    first_[depth_++] = true;
}

bool
Reader::nextKey(std::string_view &key)
{
    skipWs();
    bool &first = first_[depth_ - 1];
    if (first) {
        first = false;
        if (!eof() && text_[pos_] == '}') {
            ++pos_;
            --depth_;
            return false;
        }
    } else {
        if (eof())
            fail("unterminated object");
        if (text_[pos_] != ',') {
            expect('}');
            --depth_;
            return false;
        }
        ++pos_;
        skipWs();
    }
    if (eof() || text_[pos_] != '"')
        fail("expected object key");
    key = string();
    skipWs();
    expect(':');
    return true;
}

bool
Reader::nextElement()
{
    skipWs();
    bool &first = first_[depth_ - 1];
    if (first) {
        first = false;
        if (!eof() && text_[pos_] == ']') {
            ++pos_;
            --depth_;
            return false;
        }
        return true;
    }
    if (eof())
        fail("unterminated array");
    if (text_[pos_] != ',') {
        expect(']');
        --depth_;
        return false;
    }
    ++pos_;
    return true;
}

bool
Reader::boolean()
{
    skipWs();
    const bool value = !eof() && text_[pos_] == 't';
    literal(value ? "true" : "false");
    return value;
}

void
Reader::null()
{
    skipWs();
    literal("null");
}

double
Reader::number()
{
    skipWs();
    const size_t start = pos_;
    if (!eof() && text_[pos_] == '-')
        ++pos_;
    while (!eof() && isNumberByte(text_[pos_]))
        ++pos_;
    if (pos_ == start)
        fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    // Up to 18 digits convert exactly as strtod would: the integer is
    // exact and the conversion to double rounds to nearest.
    const size_t sign = token[0] == '-' ? 1 : 0;
    if (token.size() > sign && token.size() - sign <= 18 &&
        std::all_of(token.begin() + sign, token.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
        uint64_t n = 0;
        for (size_t i = sign; i < token.size(); ++i)
            n = 10 * n + static_cast<uint64_t>(token[i] - '0');
        const double v = static_cast<double>(n);
        return sign ? -v : v;
    }
    scratch_.assign(token);
    char *end = nullptr;
    const double v = std::strtod(scratch_.c_str(), &end);
    if (end == scratch_.c_str() || *end != '\0')
        fail("malformed number");
    // JSON has no NaN/Infinity; also reject finite-looking tokens that
    // overflow to infinity (e.g. 1e999).
    if (!std::isfinite(v))
        fail("number is not finite");
    return v;
}

unsigned
Reader::hex4()
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

std::string_view
Reader::string()
{
    skipWs();
    expect('"');
    // Runs of plain bytes are taken whole: a string with no escape is
    // a view of the text, and one with escapes is built in scratch_.
    bool escaped = false;
    size_t run = pos_;
    for (;;) {
        while (!eof()) {
            const char c = text_[pos_];
            if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                break;
            ++pos_;
        }
        if (eof())
            fail("unterminated string");
        const char c = text_[pos_++];
        if (c == '"') {
            if (!escaped)
                return text_.substr(run, pos_ - 1 - run);
            scratch_.append(text_.substr(run, pos_ - 1 - run));
            return scratch_;
        }
        if (c != '\\')
            fail("raw control character in string");
        if (!escaped)
            scratch_.clear();
        escaped = true;
        scratch_.append(text_.substr(run, pos_ - 1 - run));
        if (eof())
            fail("unterminated escape");
        switch (const char e = text_[pos_++]) {
        case '"':
        case '\\':
        case '/':
            scratch_ += e;
            break;
        case 'b':
            scratch_ += '\b';
            break;
        case 'f':
            scratch_ += '\f';
            break;
        case 'n':
            scratch_ += '\n';
            break;
        case 'r':
            scratch_ += '\r';
            break;
        case 't':
            scratch_ += '\t';
            break;
        case 'u': {
            unsigned code = hex4();
            if (code >= 0xDC00 && code <= 0xDFFF)
                fail("lone low surrogate in \\u escape");
            if (code >= 0xD800 && code <= 0xDBFF) {
                // A high surrogate is only valid when paired with an
                // immediately following \u low surrogate.
                if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                    text_[pos_ + 1] != 'u')
                    fail("lone high surrogate in \\u escape");
                pos_ += 2;
                const unsigned lo = hex4();
                if (lo < 0xDC00 || lo > 0xDFFF)
                    fail("high surrogate not followed by low surrogate "
                         "in \\u escape");
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
            appendUtf8(scratch_, code);
            break;
        }
        default:
            fail("invalid escape character");
        }
        run = pos_;
    }
}

void
Reader::skip()
{
    switch (peek()) {
    case Value::Kind::Object:
        beginObject();
        for (std::string_view key; nextKey(key);)
            skip();
        return;
    case Value::Kind::Array:
        beginArray();
        while (nextElement())
            skip();
        return;
    case Value::Kind::String:
        string();
        return;
    case Value::Kind::Bool:
        boolean();
        return;
    case Value::Kind::Null:
        null();
        return;
    case Value::Kind::Number:
        number();
        return;
    }
}

std::string
Reader::mismatch(const char *expected)
{
    const Value::Kind kind = peek();
    skip();
    return std::string("JSON value is ") + kindName(kind) + ", expected " +
           expected;
}

void
Reader::finish()
{
    skipWs();
    if (!eof())
        fail("trailing content after JSON value");
}

Value
parse(std::string_view text)
{
    Reader reader(text);
    Value value = readValue(reader);
    reader.finish();
    return value;
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
