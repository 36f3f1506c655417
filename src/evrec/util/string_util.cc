#include "evrec/util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace evrec {

std::vector<std::string_view> SplitAndTrim(std::string_view text,
                                           std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    bool is_delim =
        i == text.size() || delims.find(text[i]) != std::string_view::npos;
    if (is_delim) {
      if (i > start) out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool IsAsciiAlnum(std::string_view text) {
  for (char c : text) {
    if (!std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseNumber(std::string_view text, int* out) {
  return ParseWhole(text, out);
}

bool ParseNumber(std::string_view text, int64_t* out) {
  return ParseWhole(text, out);
}

bool ParseNumber(std::string_view text, uint64_t* out) {
  return ParseWhole(text, out);
}

bool ParseNumber(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseWhole(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace evrec
