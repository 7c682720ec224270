// Name tables for the small vocabularies (NIC models, topologies,
// reliability modes, barrier locations and families): each keeps one
// constexpr array of rows with a `name` next to its enum, and its parsers,
// printers and "must be ..." diagnostics all read that array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace nicbar::sim {

/// The first row of `rows` whose `name` equals `name`; nullptr if none.
template <typename Rows>
constexpr auto find_named(const Rows& rows, std::string_view name)
    -> decltype(&*std::begin(rows)) {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

/// The default projection: a row's `name`.
inline constexpr auto kByName = [](const auto& row) { return std::string_view(row.name); };

/// The distinct names `name_of(row)` gives, in row order.
template <typename Rows, typename NameOf = decltype(kByName)>
std::vector<std::string> distinct_names(const Rows& rows, NameOf name_of = kByName) {
  std::vector<std::string> names;
  for (const auto& r : rows) {
    std::string n(name_of(r));
    if (std::find(names.begin(), names.end(), n) == names.end()) names.push_back(std::move(n));
  }
  return names;
}

/// `names` joined by `sep`, the last one by `last`: "pe | gb | hier".
inline std::string join(const std::vector<std::string>& names, std::string_view sep,
                        std::string_view last) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.append(i == 0 ? "" : i + 1 == names.size() ? last : sep).append(names[i]);
  }
  return out;
}

/// "a or b", "a, b, or c": the tail of a "must be ..." diagnostic.
template <typename Rows, typename NameOf = decltype(kByName)>
std::string or_list(const Rows& rows, NameOf name_of = kByName) {
  const std::vector<std::string> names = distinct_names(rows, name_of);
  return join(names, ", ", names.size() == 2 ? " or " : ", or ");
}

}  // namespace nicbar::sim
