#include "support/strings.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <clocale>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace support {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> parse_int(std::string_view s) {
  std::string t(trim(s));
  if (t.empty()) return invalid_argument("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(t.c_str(), &end, 10);
  if (errno == ERANGE) return out_of_range("integer out of range: " + t);
  if (end != t.c_str() + t.size())
    return invalid_argument("not an integer: '" + t + "'");
  return static_cast<int64_t>(v);
}

Result<int64_t> parse_int_in(std::string_view s, int64_t lo, int64_t hi) {
  SUP_ASSIGN_OR_RETURN(int64_t v, parse_int(s));
  if (v < lo || v > hi)
    return out_of_range(format("%lld is outside [%lld, %lld]",
                               static_cast<long long>(v),
                               static_cast<long long>(lo),
                               static_cast<long long>(hi)));
  return v;
}

Result<double> parse_double(std::string_view s) {
  std::string t(trim(s));
  if (t.empty()) return invalid_argument("empty number");
  // std::from_chars always expects '.' as the decimal separator, unlike
  // strtod which honours LC_NUMERIC (a German locale would stop at the
  // '.' of "0.25" and yield 0).
  double v = 0;
  auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec == std::errc::result_out_of_range)
    return out_of_range("number out of range: " + t);
  if (ec != std::errc() || end != t.data() + t.size())
    return invalid_argument("not a number: '" + t + "'");
  return v;
}

void append_double(std::string* out, double value, int precision) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, precision);
  if (ec != std::errc()) {
    // Cannot happen for finite doubles at sane precisions; fall back to
    // snprintf with the locale's separator patched to '.'.
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    for (char* p = buf; *p != '\0'; ++p)
      if (*p == ',') *p = '.';
    out->append(buf);
    return;
  }
  out->append(buf, static_cast<size_t>(end - buf));
}

std::string format_double(double value, int precision) {
  std::string out;
  append_double(&out, value, precision);
  return out;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  auto head = static_cast<unsigned char>(s[0]);
  if (!std::isalpha(head) && s[0] != '_') return false;
  for (char c : s.substr(1)) {
    auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace support
