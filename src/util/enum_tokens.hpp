// One {token, value} table per enum: the stable CLI, CSV and wire
// spelling of each value. Printing and parsing both read the table, so a
// token is written once; `simctl drivers` lists the tables themselves.
#pragma once

#include <optional>
#include <span>
#include <string_view>

namespace skp {

template <typename Enum>
struct EnumToken {
  const char* token;
  Enum value;
};

// "?" for a value the table does not list.
template <typename Enum>
constexpr const char* token_of(std::span<const EnumToken<Enum>> table,
                               Enum value) {
  for (const EnumToken<Enum>& t : table) {
    if (t.value == value) return t.token;
  }
  return "?";
}

template <typename Enum>
constexpr std::optional<Enum> parse_token(
    std::span<const EnumToken<Enum>> table, std::string_view name) {
  for (const EnumToken<Enum>& t : table) {
    if (name == t.token) return t.value;
  }
  return std::nullopt;
}

}  // namespace skp
