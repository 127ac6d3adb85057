#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace autobraid {

namespace {

[[noreturn]] void
reject(std::string_view text, const char *flag, const char *expect)
{
    throw UserError("invalid value '" + std::string(text) + "' for " +
                    flag + " (expected " + expect + ")");
}

/**
 * @p text NUL-terminated for the strto* family: copied to the stack
 * when it is as short as a flag value or a QASM literal, to the heap
 * otherwise. An embedded NUL ends the copy's C string early, so the
 * conversion stops short of the end and the token is rejected.
 */
class Terminated
{
  public:
    explicit Terminated(std::string_view text) : size_(text.size())
    {
        if (size_ < sizeof(small_)) {
            text.copy(small_, size_);
            small_[size_] = '\0';
        } else {
            large_.assign(text);
        }
    }

    const char *
    str() const
    {
        return large_.empty() ? small_ : large_.c_str();
    }

    /**
     * True when the token parsed cleanly end-to-end: non-empty, no
     * leading whitespace (strtol would silently skip it), and the
     * conversion stopped at @p end, after every character.
     */
    bool
    clean(const char *end) const
    {
        const char *s = str();
        return end != s && end == s + size_ &&
               !std::isspace(static_cast<unsigned char>(*s));
    }

  private:
    char small_[64] = {};
    std::string large_;
    size_t size_;
};

} // namespace

bool
matchValue(const char *arg, const char *key, std::string &value)
{
    const size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) != 0 || arg[len] != '=')
        return false;
    value = arg + len + 1;
    return true;
}

long long
parseCheckedInt(std::string_view text, const char *flag, long long min,
                long long max)
{
    const Terminated token(text);
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(token.str(), &end, 10);
    if (!token.clean(end))
        reject(text, flag, "a decimal integer");
    if (errno == ERANGE || value < min || value > max) {
        const std::string range = "an integer in [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "]";
        reject(text, flag, range.c_str());
    }
    return value;
}

int
parseCheckedIntFlag(std::string_view text, const char *flag, int min,
                    int max)
{
    return static_cast<int>(parseCheckedInt(text, flag, min, max));
}

uint64_t
parseCheckedUInt(std::string_view text, const char *flag, uint64_t max)
{
    // strtoull wraps "-1" to UINT64_MAX instead of failing; reject any
    // sign up front so out-of-range negatives cannot sneak through.
    if (!text.empty() && (text[0] == '-' || text[0] == '+'))
        reject(text, flag, "an unsigned decimal integer");
    const Terminated token(text);
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(token.str(), &end, 10);
    if (!token.clean(end))
        reject(text, flag, "an unsigned decimal integer");
    if (errno == ERANGE || value > max) {
        const std::string range =
            "an unsigned integer <= " + std::to_string(max);
        reject(text, flag, range.c_str());
    }
    return value;
}

double
parseCheckedDouble(std::string_view text, const char *flag, double min,
                   double max)
{
    const Terminated token(text);
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(token.str(), &end);
    if (!token.clean(end))
        reject(text, flag, "a number");
    if (errno == ERANGE || !std::isfinite(value) || value < min ||
        value > max) {
        const bool bounded =
            min != std::numeric_limits<double>::lowest() ||
            max != std::numeric_limits<double>::max();
        const std::string range =
            bounded ? "a finite number in [" + std::to_string(min) + ", " +
                          std::to_string(max) + "]"
                    : "a finite number";
        reject(text, flag, range.c_str());
    }
    return value;
}

} // namespace autobraid
