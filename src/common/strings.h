// Small string helpers shared by the parsers and the benchmark harness.

#ifndef XMLPROJ_COMMON_STRINGS_H_
#define XMLPROJ_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xmlproj {

// Splits on a single character; keeps empty pieces.
std::vector<std::string_view> Split(std::string_view text, char sep);

// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// True if the string consists only of XML whitespace (space, tab, CR, LF).
bool IsAllXmlWhitespace(std::string_view text);

// Strict parse of a whole decimal number (flag values, failpoint specs):
// no leading whitespace or '+', nothing after the number, and a finite
// result. Returns false, leaving `*out` untouched, on anything else.
bool ParseDouble(std::string_view text, double* out);

// 64-bit FNV-1a over `data`, continuing from `seed` (chain calls to hash
// a sequence of fields). Unlike std::hash it is the same on every
// platform, so failpoint seeds, workload ids and checkpoints reproduce.
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ull;
uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1aOffset);

// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_STRINGS_H_
