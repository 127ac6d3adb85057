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
reject(const std::string &text, const char *flag, const char *expect)
{
    throw UserError("invalid value '" + text + "' for " + flag +
                    " (expected " + expect + ")");
}

/**
 * True when the token parsed cleanly end-to-end: non-empty, no
 * leading whitespace (strtol would silently skip it), and the
 * conversion consumed every character.
 */
bool
cleanToken(const std::string &text, const char *end)
{
    return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
           end == text.c_str() + text.size();
}

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
parseCheckedInt(const std::string &text, const char *flag,
                long long min, long long max)
{
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (!cleanToken(text, end) || end == text.c_str())
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
parseCheckedIntFlag(const std::string &text, const char *flag, int min,
                    int max)
{
    return static_cast<int>(parseCheckedInt(text, flag, min, max));
}

uint64_t
parseCheckedUInt(const std::string &text, const char *flag,
                 uint64_t max)
{
    // strtoull wraps "-1" to UINT64_MAX instead of failing; reject any
    // sign up front so out-of-range negatives cannot sneak through.
    if (!text.empty() && (text[0] == '-' || text[0] == '+'))
        reject(text, flag, "an unsigned decimal integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (!cleanToken(text, end) || end == text.c_str())
        reject(text, flag, "an unsigned decimal integer");
    if (errno == ERANGE || value > max) {
        const std::string range =
            "an unsigned integer <= " + std::to_string(max);
        reject(text, flag, range.c_str());
    }
    return value;
}

double
parseCheckedDouble(const std::string &text, const char *flag,
                   double min, double max)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (!cleanToken(text, end) || end == text.c_str())
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
