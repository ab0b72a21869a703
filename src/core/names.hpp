#pragma once
// Wire-name tables. Every enum that appears on a wire (the SimConfig JSON,
// the run manifest, CLI options, serve requests) declares exactly one
// `{enumerator, name}` table next to its definition, and every reader and
// writer goes through the two lookups below — so a name is spelled once and
// a parser can never drift from the matching serializer. Two enums may
// share a name ("EL2" is both a RuleSet and a KeyKind).

#include <cstddef>
#include <optional>
#include <string_view>

namespace pacds {

template <typename Enum>
struct WireName {
  Enum value;
  const char* name;
};

/// The wire name of `value`, or "?" when the table does not list it.
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr const char* wire_name(
    const WireName<Enum> (&table)[N], Enum value) noexcept {
  for (const WireName<Enum>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// The enumerator spelled `name`, or nullopt for a name the table lacks.
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr std::optional<Enum> parse_wire_name(
    const WireName<Enum> (&table)[N], std::string_view name) noexcept {
  for (const WireName<Enum>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

}  // namespace pacds
