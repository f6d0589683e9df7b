// Command-line numbers for the example programs. The whole argument must
// parse: plain decimal digits for an integer (no sign, space or prefix), a
// finite value for a floating type. A typo is a usage error, never a silent
// zero.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>

/// Parses all of `text` into `out`; false when it is malformed.
template <typename T>
bool parse_number(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [stop, err] = std::from_chars(text, end, *out);
  return err == std::errc{} && stop == end && std::isfinite(static_cast<double>(*out));
}

/// Reads argv[i] when present (absent keeps the default).
template <typename T>
bool read_arg(int argc, char** argv, int i, T* out) {
  return i >= argc || parse_number(argv[i], out);
}
