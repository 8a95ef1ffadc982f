/**
 * @file
 * Small string helpers used across the simulator.
 */

#ifndef DMX_COMMON_STRUTIL_HH
#define DMX_COMMON_STRUTIL_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace dmx
{

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Join @p parts with @p sep between them. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Strip leading/trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** @return true when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Render a byte count as a human string, e.g. "8.0 MiB". */
std::string formatBytes(std::uint64_t bytes);

/** Render a ratio as e.g. "3.42x". */
std::string formatRatio(double r);

/**
 * Strictly parse a command-line count: @p s must be one or more ASCII
 * digits and nothing else (no sign, whitespace, base prefix or suffix),
 * and the value must fit @p T. Leaves @p out untouched on failure.
 * @return whether @p s was well formed and in range
 */
template <typename T>
bool
parseDecimal(const char *s, T &out)
{
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                  "parseDecimal parses into an unsigned integer type");
    if (s == nullptr || *s == '\0')
        return false;
    T v = 0;
    for (; *s != '\0'; ++s) {
        if (*s < '0' || *s > '9')
            return false;
        const T digit = static_cast<T>(*s - '0');
        if (v > (std::numeric_limits<T>::max() - digit) / 10)
            return false;
        v = static_cast<T>(v * 10 + digit);
    }
    out = v;
    return true;
}

} // namespace dmx

#endif // DMX_COMMON_STRUTIL_HH
