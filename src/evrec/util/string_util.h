// Small string helpers shared across modules (tokenizers, CSV, report
// printing). Deliberately allocation-light; hot paths use string_view.

#ifndef EVREC_UTIL_STRING_UTIL_H_
#define EVREC_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace evrec {

// Splits `text` on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims);

// Lowercases ASCII letters in place; non-ASCII bytes pass through.
std::string AsciiToLower(std::string_view text);

// True if every byte is ASCII alphanumeric.
bool IsAsciiAlnum(std::string_view text);

// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Strict whole-string number parsing for flags and data fields: true only
// when all of `text` is one base-10 number that fits `*out` (no
// whitespace, no trailing bytes, no leading '+', no overflow; unsigned
// rejects '-'; a double must be finite). On false, `*out` is unchanged.
// Unlike atoi/atof, "abc", "12x" and "" fail instead of reading as 0.
bool ParseNumber(std::string_view text, int* out);
bool ParseNumber(std::string_view text, int64_t* out);
bool ParseNumber(std::string_view text, uint64_t* out);
bool ParseNumber(std::string_view text, double* out);

// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

}  // namespace evrec

#endif  // EVREC_UTIL_STRING_UTIL_H_
