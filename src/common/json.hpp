/**
 * @file
 * The repo's one JSON module. The reader parses strict JSON (no
 * comments, no trailing commas) into a small value tree for the tools
 * that load documents back in; parse errors raise UserError with a
 * line/column position. Every exporter writes through the Writer,
 * which makes all syntax decisions; docs/observability.md states the
 * resulting format contract.
 */

#ifndef AUTOBRAID_COMMON_JSON_HPP
#define AUTOBRAID_COMMON_JSON_HPP

#include <charconv>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace autobraid {
namespace json {

class Value;
using Array = std::vector<Value>;
/** std::map keeps key iteration deterministic for re-serialization. */
using Object = std::map<std::string, Value>;

/** One JSON value; a tree of these represents a parsed document. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() : kind_(Kind::Null) {}
    explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    explicit Value(double d) : kind_(Kind::Number), num_(d) {}
    explicit Value(std::string s)
        : kind_(Kind::String), str_(std::move(s))
    {
    }
    explicit Value(Array a)
        : kind_(Kind::Array),
          arr_(std::make_shared<Array>(std::move(a)))
    {
    }
    explicit Value(Object o)
        : kind_(Kind::Object),
          obj_(std::make_shared<Object>(std::move(o)))
    {
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; raise UserError on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Member as number/string with a fallback when absent. */
    double numberOr(const std::string &key, double fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

  private:
    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    // Shared so Values stay cheap to copy; parsed trees are read-only.
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/** Parse @p text as one JSON document; UserError on malformed input. */
Value parse(const std::string &text);

/** Read and parse @p path; UserError on IO or parse failure. */
Value parseFile(const std::string &path);

/**
 * Streaming JSON writer appending to a caller-owned string. It builds
 * no tree: members come out in the order the caller writes them.
 * Strings are escaped like jsonEscape(). Integers print exactly;
 * doubles print with a fixed number of decimals or of significant
 * digits (printf's %.Nf / %.Ng), and a non-finite double prints as 0
 * so no document can carry bare inf/nan.
 */
class Writer
{
  public:
    enum class Layout
    {
        /** "," and ":" with no whitespace. */
        Compact,
        /**
         * The versioned file documents: the top-level object puts one
         * member per line at a 2-space indent, a beginRows() array one
         * element per line at a 4-space indent, and everything nested
         * deeper is inline with ", " and ": ". Ends with a newline.
         */
        Document,
    };

    explicit Writer(std::string &out, Layout layout = Layout::Compact)
        : out_(out), layout_(layout)
    {
    }

    Writer &beginObject() { return open('{', '}', false); }
    Writer &beginArray() { return open('[', ']', false); }
    /** An array laid out one element per line (Document layout). */
    Writer &beginRows() { return open('[', ']', true); }
    /** Close the innermost open object or array. */
    Writer &end();

    /** Object member name; the next call writes its value. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view s);
    /** Without this overload a string literal would pick value(bool). */
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }
    template <typename Int,
              std::enable_if_t<std::is_integral_v<Int> &&
                                   !std::is_same_v<Int, bool>,
                               int> = 0>
    Writer &value(Int v)
    {
        char buf[24];
        const char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        return raw(std::string_view(buf, static_cast<size_t>(end - buf)));
    }
    /** Doubles must pick a format: fixed() or significant(). */
    Writer &value(double) = delete;
    Writer &null() { return raw("null"); }

    /** @p v with @p decimals digits after the point (%.Nf). */
    Writer &fixed(double v, int decimals)
    {
        return floating(v, decimals, true);
    }
    /** @p v with @p digits significant digits (%.Ng). */
    Writer &significant(double v, int digits)
    {
        return floating(v, digits, false);
    }

    /** Insert @p json, an already serialized value, verbatim. */
    Writer &raw(std::string_view json);

  private:
    /** Same cap as the reader: deeper documents would not parse. */
    static constexpr int kMaxDepth = 64;

    struct Frame
    {
        char close;
        bool rows;  ///< one element per line
        bool empty; ///< nothing written inside yet
    };

    void separate();
    void newline(int depth);
    Writer &open(char opening, char closing, bool rows);
    Writer &floating(double v, int precision, bool fixed);

    std::string &out_;
    Layout layout_;
    Frame stack_[kMaxDepth] = {};
    int depth_ = 0;
    bool after_key_ = false;
};

} // namespace json
} // namespace autobraid

#endif // AUTOBRAID_COMMON_JSON_HPP
