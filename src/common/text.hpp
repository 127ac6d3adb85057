/**
 * @file
 * Small string helpers: printf-style formatting into std::string, trimming,
 * splitting, and human-readable quantity rendering used by the report
 * printers in the benchmark harness.
 */

#ifndef AUTOBRAID_COMMON_TEXT_HPP
#define AUTOBRAID_COMMON_TEXT_HPP

#include <string>
#include <vector>

namespace autobraid {

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** Split @p s on @p sep, dropping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Render a quantity the way the paper's tables do: "950", "1.28K",
 * "3.63M". Values < 1000 print as integers; larger values use K/M/G with
 * up to three significant digits.
 */
std::string humanQuantity(double value);

/**
 * Render a duration given in microseconds using the paper's table style,
 * e.g. "745", "1.28K", "149K", "3.63M" (all in microseconds).
 */
std::string humanMicros(double micros);

/**
 * Escape a string for inclusion in a JSON document (quotes,
 * backslashes, and control characters). Defined in common/json.cpp:
 * json::Writer escapes every string with the same code.
 */
std::string jsonEscape(const std::string &s);

/**
 * Write @p content to @p path, replacing any existing file. Raises
 * UserError when the file cannot be opened or fully written.
 */
void writeTextFile(const std::string &path, const std::string &content);

/**
 * Read the entire file at @p path into a string. Raises UserError
 * when the file cannot be opened or read.
 */
std::string readTextFile(const std::string &path);

} // namespace autobraid

#endif // AUTOBRAID_COMMON_TEXT_HPP
