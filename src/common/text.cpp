#include "common/text.hpp"

#include <sys/stat.h>

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common/error.hpp"

namespace autobraid {

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0) {
        va_end(args);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    va_end(args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
trim(const std::string &s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> fields;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (!cur.empty())
                fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        fields.push_back(cur);
    return fields;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

/** Print with up to three significant digits, dropping trailing zeros. */
std::string
sigDigits(double v)
{
    std::string s;
    if (v >= 100.0)
        s = strformat("%.0f", v);
    else if (v >= 10.0)
        s = strformat("%.1f", v);
    else
        s = strformat("%.2f", v);
    // Drop a trailing ".0" / ".00" style fraction.
    const size_t dot = s.find('.');
    if (dot != std::string::npos) {
        size_t last = s.find_last_not_of('0');
        if (last == dot)
            --last;
        s.erase(last + 1);
    }
    return s;
}

} // namespace

std::string
humanQuantity(double value)
{
    const double v = std::fabs(value);
    const char *sign = value < 0 ? "-" : "";
    if (v < 1000.0)
        return strformat("%s%.0f", sign, v);
    if (v < 1e6)
        return std::string(sign) + sigDigits(v / 1e3) + "K";
    if (v < 1e9)
        return std::string(sign) + sigDigits(v / 1e6) + "M";
    return std::string(sign) + sigDigits(v / 1e9) + "G";
}

std::string
humanMicros(double micros)
{
    return humanQuantity(micros);
}

void
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());
    const size_t written =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != content.size() || !closed)
        fatal("short write to '%s'", path.c_str());
}

std::string
readTextFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open '%s' for reading", path.c_str());
    std::string content;
    // A regular file is read into one allocation of its size, not
    // copied through each doubling of the string on the way in. Other
    // files report no size to trust: a directory's end offset can be
    // LLONG_MAX, and a directory then fails at the first read below.
    struct stat st;
    if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0 &&
        static_cast<unsigned long long>(st.st_size) <= content.max_size())
        content.reserve(static_cast<size_t>(st.st_size));
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, got);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        fatal("read error on '%s'", path.c_str());
    return content;
}

} // namespace autobraid
