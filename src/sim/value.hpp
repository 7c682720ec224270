// Value kinds: what a command-line flag or a workload-spec key may hold.
// Each kind reads one token, prints a form that reads back to the same
// value, and says what it accepts in a refusal ("needs an integer in
// [1, 2147483647]"). nicbar_run's flag table and the workload spec's key
// table are built of them, so a flag and a key of one kind accept and refuse
// the same values (DESIGN.md §18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/names.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

/// Length of the longest prefix of `s` that std::num_get reads for a double
/// in the "C" locale: [sign] digits [. digits] [e [sign] digits], where the
/// exponent needs a digit before it. The prefix may end inside a word.
[[nodiscard]] std::size_t number_prefix(std::string_view s);

/// The value of a whole number_prefix() token, or nullopt where the stream
/// set failbit: no digits, a dangling exponent, or a magnitude past the
/// largest double. An underflow reads as the nearest double, as strtod's.
[[nodiscard]] std::optional<double> to_double(std::string_view tok);

/// A whole number of type T in [lo, hi], read without a detour through
/// double, so "2.5", "1e3" and overflow are refused.
template <typename T>
struct Integer {
  T lo, hi;
  static constexpr bool kNumeric = true;
  [[nodiscard]] std::optional<T> read(std::string_view text) const;
  [[nodiscard]] static std::string print(T v) { return std::to_string(v); }
  [[nodiscard]] std::string refusal() const;
};
using Int = Integer<std::int64_t>;
/// An RNG seed: any unsigned 64-bit integer.
inline constexpr Integer<std::uint64_t> kSeed{0, std::numeric_limits<std::uint64_t>::max()};

/// A real number in [lo, hi], an end marked open excluded, printed in the
/// shortest form that reads back to the same double.
struct Real {
  double lo, hi;
  bool lo_open = false, hi_open = false;
  static constexpr bool kNumeric = true;
  [[nodiscard]] std::optional<double> read(std::string_view text) const;
  [[nodiscard]] static std::string print(double v);
  [[nodiscard]] std::string refusal() const;
};

/// A clock in MHz that sim::cycles_at_mhz represents: a cycle of at least a
/// picosecond (1 THz) and at most a millisecond (1 kHz), so 2^32 cycles fit.
inline constexpr Real kMhz{1e-3, 1e6};

/// A non-negative span in microseconds, read to the exact picosecond (a
/// digit below one picosecond rounds to the nearest) and printed with six
/// decimals, which is exact. It is at most an hour: the model adds such a
/// span to its own costs, scales it and adds it to the clock, and an hour
/// keeps all of that far inside the ~106 days a Duration holds.
struct Micros {
  static constexpr Duration kMax{3'600'000'000'000'000};
  static constexpr bool kNumeric = true;
  [[nodiscard]] static std::optional<Duration> read(std::string_view text);
  [[nodiscard]] static std::string print(Duration d);
  [[nodiscard]] static std::string refusal();
};

/// A name from a sim/names.hpp table: the row's `kValue` member (an enum,
/// say) or, without one, the row itself.
template <const auto& kRows, auto kValue = nullptr>
struct Name {
  using Row = std::remove_cvref_t<decltype(*std::begin(kRows))>;
  static constexpr bool kNumeric = false;
  static constexpr bool kRow = std::is_null_pointer_v<decltype(kValue)>;

  [[nodiscard]] static auto read(std::string_view text) {
    const Row* row = find_named(kRows, text);
    if constexpr (kRow) {
      return row == nullptr ? std::nullopt : std::optional(row);
    } else {
      return row == nullptr ? std::nullopt : std::optional(row->*kValue);
    }
  }
  [[nodiscard]] static std::string_view print(const auto& value) {
    for (const Row& r : kRows) {
      if (r.*kValue == value) return r.name;
    }
    return "?";
  }
  [[nodiscard]] static std::string refusal() { return "must be " + or_list(kRows); }
  /// The usage text's list: "nic | host".
  [[nodiscard]] static std::string choices() { return join(distinct_names(kRows), " | ", " | "); }
};

}  // namespace nicbar::sim
