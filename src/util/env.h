// The strict parse every boolean environment knob shares.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace stair {

/// `name` as a boolean: unset or empty -> `fallback`, 1/true/yes/on ->
/// true, 0/false/no/off -> false, anything else throws std::runtime_error
/// (a typo in a knob must not silently run the wrong configuration).
inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string_view s(v);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::runtime_error(std::string(name) + ": unknown value \"" + std::string(s) +
                           "\" (expected 1/true/yes/on or 0/false/no/off)");
}

}  // namespace stair
