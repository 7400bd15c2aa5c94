// Small string helpers shared by the parsers and the benchmark harness.

#ifndef XMLPROJ_COMMON_STRINGS_H_
#define XMLPROJ_COMMON_STRINGS_H_

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

// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_STRINGS_H_
