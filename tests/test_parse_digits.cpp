#include "util/parse_digits.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string_view>

namespace skp {
namespace {

TEST(ParseDigitsU64, AcceptsOnlyDigitsThatFit) {
  const struct {
    std::string_view text;
    std::optional<std::uint64_t> want;
  } cases[] = {
      {"0", 0},
      {"007", 7},
      {"42", 42},
      {"18446744073709551615", UINT64_MAX},  // 2^64 - 1
      {"18446744073709551616", std::nullopt},  // 2^64
      {"", std::nullopt},
      {"+0", std::nullopt},
      {"-1", std::nullopt},
      {"-0", std::nullopt},
      {" 0", std::nullopt},
      {"0 ", std::nullopt},
      {"1e3", std::nullopt},
      {"0x10", std::nullopt},
      {"abc", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_digits_u64(c.text), c.want) << "'" << c.text << "'";
  }
}

}  // namespace
}  // namespace skp
