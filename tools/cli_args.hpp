// Total parsers for the numeric flags of the command-line tools. A value is
// accepted only if the whole text is a number of the right kind (no sign on
// counts, no trailing characters, finite reals); anything else yields
// nullopt and the tool reports "invalid value for --<flag>" instead of
// letting an exception escape main.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

namespace radloc::cli {

inline std::optional<std::uint64_t> parse_count(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

inline std::optional<double> parse_real(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace radloc::cli
