/**
 * @file
 * Command-line flag matching and checked numeric parsing of flag
 * values.
 *
 * The raw std::stoi/std::stoull family throws std::invalid_argument /
 * std::out_of_range on garbage or overflow, which every tool used to
 * let escape as an uncaught abort ("--jobs=abc" took the whole
 * process down). These helpers instead validate the complete token —
 * no empty strings, no trailing junk, no silent wraparound — and
 * raise UserError with the offending flag name, so tools can report
 * "invalid value" and exit 2 per the shared exit-code convention.
 * They take views, so the QASM parser converts a literal in place,
 * without copying its token into a string first.
 */

#ifndef AUTOBRAID_COMMON_PARSE_HPP
#define AUTOBRAID_COMMON_PARSE_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace autobraid {

/**
 * True when @p arg is "KEY=VALUE" for the flag @p key (say "--out");
 * @p value then receives the text after the '='.
 */
bool matchValue(const char *arg, const char *key, std::string &value);

/**
 * Parse @p text as a decimal integer in [@p min, @p max]. Raises
 * UserError naming @p flag when the token is empty, contains trailing
 * junk, or falls outside the range.
 */
long long parseCheckedInt(
    std::string_view text, const char *flag,
    long long min = std::numeric_limits<long long>::min(),
    long long max = std::numeric_limits<long long>::max());

/** parseCheckedInt() narrowed to int for the common flag case. */
int parseCheckedIntFlag(std::string_view text, const char *flag,
                        int min, int max);

/**
 * Parse @p text as an unsigned decimal integer <= @p max. Unlike
 * std::stoull, a leading '-' is rejected rather than wrapped around.
 */
uint64_t parseCheckedUInt(
    std::string_view text, const char *flag,
    uint64_t max = std::numeric_limits<uint64_t>::max());

/**
 * Parse @p text as a finite double in [@p min, @p max]. "inf"/"nan"
 * spellings are rejected along with garbage and trailing junk.
 */
double parseCheckedDouble(
    std::string_view text, const char *flag,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max());

} // namespace autobraid

#endif // AUTOBRAID_COMMON_PARSE_HPP
