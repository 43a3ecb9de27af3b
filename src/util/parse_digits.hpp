// The one digits-only rule for unsigned integers read from untrusted
// text: CLI flags, shard CSV index fields and skpd wire values. The
// text must be one or more ASCII digits and fit in 64 bits — no sign,
// no whitespace, no radix prefix. std::stoull would accept "+0" and
// " 0" and wrap "-1" into 2^64 - 1. Callers keep their own error paths.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace skp {

inline std::optional<std::uint64_t> parse_digits_u64(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace skp
