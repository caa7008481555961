// parse_number.h — the one strict number parser behind every command-line
// flag, environment knob and failpoint predicate.
//
// The whole token must be a number inside [lo, hi]: std::from_chars takes
// no sign on an unsigned type, no leading blank and no trailing junk, and
// NaN fails the range check. So `abc`, `12x`, an empty value, `-1` for a
// count or `1.5` for a fraction are rejected instead of silently becoming
// 0 the way atof/strtoull read them.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dynamips::core {

template <typename T>
std::optional<T> parse_number(std::string_view text,
                              T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  const char* end = text.data() + text.size();
  T value{};
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && !text.empty() && value >= lo &&
      value <= hi)
    return value;
  return std::nullopt;
}

template <typename T>
std::string bound_text(T bound) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(bound);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", bound);
    return buf;
  }
}

/// Command-line flavour: a bad value prints
/// "<name>: expected an integer in [lo, hi], got '<text>'" to stderr and
/// exits 2. `name` is the flag or environment variable the text came from.
template <typename T>
T parse_number_or_exit(std::string_view name, std::string_view text, T lo,
                       T hi) {
  if (auto value = parse_number(text, lo, hi)) return *value;
  std::fprintf(stderr, "%.*s: expected %s in [%s, %s], got '%.*s'\n",
               int(name.size()), name.data(),
               std::is_integral_v<T> ? "an integer" : "a number",
               bound_text(lo).c_str(), bound_text(hi).c_str(),
               int(text.size()), text.data());
  std::exit(2);
}

}  // namespace dynamips::core
