/**
 * @file
 * The repo's one JSON module. The Reader pulls strict JSON (no
 * comments, no trailing commas) one value at a time; it is the only
 * reader, and syntax errors raise UserError with a line/column
 * position. parse() builds a small value tree on it for the small
 * documents (serve requests, option values, metrics); the schedule
 * and recording decoders read straight from it. Every exporter writes
 * through the Writer, which makes all syntax decisions;
 * docs/observability.md states the resulting format contract.
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

/**
 * Pull reader over one JSON document. It builds nothing: the caller
 * peeks at the kind of the value at the cursor and reads it, enters
 * it, or skips it. Every value the cursor passes, skipped ones too, is
 * checked by the same rules, and the first violation raises UserError
 * with its line, column and byte. Containers nest at most 64 deep, so
 * a reader that recurses once per level stays bounded. The caller
 * must consume each value it steps onto, then call finish().
 */
class Reader
{
  public:
    /** Reads @p text, which must outlive the reader. */
    explicit Reader(std::string_view text) : text_(text) {}

    /** Kind of the value at the cursor; raises at end of input. */
    Value::Kind peek();

    /** Enter the object or array at the cursor. */
    void beginObject() { open('{'); }
    void beginArray() { open('['); }

    /**
     * Step to the next member of the innermost object: true with the
     * cursor on its value and @p key naming it, false past the '}'.
     */
    bool nextKey(std::string_view &key);

    /** Step to the next element of the innermost array; false past ']'. */
    bool nextElement();

    /** Read the scalar at the cursor, of the kind peek() returned. */
    bool boolean();
    double number();
    void null();
    /**
     * Read the string at the cursor, escapes decoded. The view, like a
     * key from nextKey(), is valid until the next call.
     */
    std::string_view string();

    /** Read past the value at the cursor. */
    void skip();

    /**
     * Skip the value at the cursor and return the error Value's typed
     * accessors raise for it: "JSON value is K, expected @p expected".
     */
    std::string mismatch(const char *expected);

    /** Raise unless only whitespace follows the top-level value. */
    void finish();

  private:
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void fail(const char *what) const;
    bool eof() const { return pos_ >= text_.size(); }
    void skipWs();
    void expect(char c);
    void literal(std::string_view word);
    void open(char bracket);
    unsigned hex4();

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    /** Per open container: nothing read inside it yet. */
    bool first_[kMaxDepth] = {};
    std::string scratch_; ///< strings with escapes, number tokens
};

/** Parse @p text as one JSON document; UserError on malformed input. */
Value parse(std::string_view text);

/**
 * One object member as a decoder sees it when it reads members in
 * document order but must fail in a fixed order of checks: whether the
 * member was present, and the first check its value failed. A repeated
 * member replaces the earlier one, as in parse()'s tree.
 */
struct Member
{
    bool seen = false;
    std::string error;

    void set(std::string first_error)
    {
        seen = true;
        error = std::move(first_error);
    }
};

/**
 * Read the value at @p r's cursor as an object whose members of
 * interest are named by @p keys: call @p read(i) on the value of each
 * member named keys[i] and keep what it returns as members[i]'s error,
 * and skip every other member. A value that is not an object is
 * skipped and leaves every Member unseen, as find() on it would.
 */
template <size_t N, typename Read>
void
readMembers(Reader &r, const char *const (&keys)[N], Member (&members)[N],
            Read read)
{
    if (r.peek() != Value::Kind::Object) {
        r.skip();
        return;
    }
    r.beginObject();
    for (std::string_view key; r.nextKey(key);) {
        size_t i = 0;
        while (i < N && key != keys[i])
            ++i;
        if (i < N)
            members[i].set(read(i));
        else
            r.skip();
    }
}

/**
 * Read the array at @p r's cursor, which the caller has checked is
 * one: call @p element for each element until it returns an error,
 * skip the rest, and return that error ("" when none).
 */
template <typename Element>
std::string
readElements(Reader &r, Element element)
{
    std::string error;
    r.beginArray();
    while (r.nextElement()) {
        if (error.empty())
            error = element();
        else
            r.skip();
    }
    return error;
}

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
