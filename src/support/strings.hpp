// Small string utilities shared by the XML parser, XSPCL front end, and
// command-line tools.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace support {

// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

// Split on a separator character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// Strict integer / double parsing of the full string (after trimming).
// Locale-independent: the decimal separator is always '.' no matter
// what LC_NUMERIC the host process runs under.
Result<int64_t> parse_int(std::string_view s);
Result<double> parse_double(std::string_view s);

// parse_int plus a range check: an error unless lo <= value <= hi.
// Every integer a tool reads from its command line or protocol goes
// through here, so a bad number is a message, never an abort.
Result<int64_t> parse_int_in(std::string_view s, int64_t lo, int64_t hi);

// Locale-independent shortest-faithful double formatting with %.6g
// semantics (precision significant digits, fixed/scientific picked
// automatically). snprintf("%g") writes the LC_NUMERIC decimal
// separator — a comma under e.g. de_DE — which corrupts JSON output;
// every JSON/metrics emitter routes doubles through here instead.
void append_double(std::string* out, double value, int precision = 6);
std::string format_double(double value, int precision = 6);

// True if `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_.-]*
bool is_identifier(std::string_view s);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace support
