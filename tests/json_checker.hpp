/**
 * @file
 * An independent JSON syntax checker for the tests: it shares no code
 * with src/common/json, so a writer bug cannot hide behind a reader
 * bug. test_json_wellformed and test_lint run every exported document
 * kind through it.
 */

#ifndef AUTOBRAID_TESTS_JSON_CHECKER_HPP
#define AUTOBRAID_TESTS_JSON_CHECKER_HPP

#include <cctype>
#include <cstring>
#include <string>

namespace autobraid {

/** Tiny recursive-descent JSON syntax checker (no value semantics). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;

    char peek() const { return pos_ < text_.size() ? text_[pos_] : 0; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    literal(const char *word)
    {
        for (const char *c = word; *c; ++c)
            if (!consume(*c))
                return false;
        return true;
    }

    bool
    object()
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    array()
    {
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                        ++pos_;
                    }
                } else if (!std::strchr("\"\\/bfnrt", esc)) {
                    return false;
                }
            }
        }
        return false;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.'))
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }
};

} // namespace autobraid

#endif // AUTOBRAID_TESTS_JSON_CHECKER_HPP
