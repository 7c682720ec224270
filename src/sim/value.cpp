#include "sim/value.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace nicbar::sim {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// `text` as a whole integer token of type T, a leading '+' allowed.
template <typename T>
std::optional<T> whole(std::string_view text) {
  if (!text.empty() && text.front() == '+') text.remove_prefix(1);
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  return v;
}

/// "in [lo, hi]", or ">= lo" when nothing bounds the value above.
std::string interval(const std::string& lo, const std::string& hi, bool lo_open, bool hi_open,
                     bool unbounded) {
  if (unbounded) return (lo_open ? "> " : ">= ") + lo;
  return std::string("in ") + (lo_open ? "(" : "[") + lo + ", " + hi + (hi_open ? ")" : "]");
}

}  // namespace

std::size_t number_prefix(std::string_view s) {
  std::size_t i = 0;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  bool digit = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (is_digit(c)) {
      digit = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && digit) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      while (i < s.size() && is_digit(s[i])) ++i;
      break;
    } else {
      break;
    }
  }
  return i;
}

std::optional<double> to_double(std::string_view tok) {
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);  // from_chars takes '-' only
  double v = 0.0;
  const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (end != tok.data() + tok.size() || ec == std::errc::invalid_argument) return std::nullopt;
  if (ec == std::errc::result_out_of_range) {
    v = std::strtod(std::string(tok).c_str(), nullptr);
    if (std::isinf(v)) return std::nullopt;
  }
  return v;
}

template <typename T>
std::optional<T> Integer<T>::read(std::string_view text) const {
  const std::optional<T> v = whole<T>(text);
  return v && *v >= lo && *v <= hi ? v : std::nullopt;
}

template <typename T>
std::string Integer<T>::refusal() const {
  const bool unbounded = std::is_signed_v<T> && hi == std::numeric_limits<T>::max();
  return "needs an integer " + interval(print(lo), print(hi), false, false, unbounded);
}

template struct Integer<std::int64_t>;
template struct Integer<std::uint64_t>;

std::optional<double> Real::read(std::string_view text) const {
  const std::optional<double> v =
      number_prefix(text) == text.size() ? to_double(text) : std::nullopt;
  if (!v || (lo_open ? *v <= lo : *v < lo) || (hi_open ? *v >= hi : *v > hi)) return std::nullopt;
  return v;
}

std::string Real::print(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

std::string Real::refusal() const {
  return "needs a number " +
         interval(print(lo), print(hi), lo_open, hi_open, hi == std::numeric_limits<double>::max());
}

std::optional<Duration> Micros::read(std::string_view text) {
  if (text.empty() || number_prefix(text) != text.size()) return std::nullopt;
  const bool negative = text.front() == '-';
  if (negative || text.front() == '+') text.remove_prefix(1);
  // The significand's digits and the power of ten that scales them to ps.
  std::string digits;
  std::int64_t exp = 6;
  std::size_t i = 0;
  for (bool dot = false; i < text.size() && (is_digit(text[i]) || text[i] == '.'); ++i) {
    if (text[i] == '.') {
      dot = true;
    } else {
      digits += text[i];
      exp -= dot ? 1 : 0;
    }
  }
  if (digits.empty()) return std::nullopt;  // ".", "-"
  if (i < text.size()) {                    // e[sign]digits
    const std::optional<std::int64_t> e = whole<std::int64_t>(text.substr(i + 1));
    if (!e) return std::nullopt;  // "1e", or an exponent past int64
    exp += std::clamp<std::int64_t>(*e, -100'000, 100'000);
  }
  digits.erase(0, std::min(digits.find_first_not_of('0'), digits.size()));
  if (digits.empty()) return Duration{0};  // zero, "-0" included
  if (negative) return std::nullopt;
  // Keep the digits at or above one picosecond (19 fit a uint64); the first
  // one below rounds.
  const std::int64_t kept = static_cast<std::int64_t>(digits.size()) + exp;
  if (kept > 19) return std::nullopt;
  if (kept < 0) return Duration{0};
  const auto whole_ps = static_cast<std::size_t>(kept);
  digits.resize(std::max(digits.size(), whole_ps + 1), '0');
  std::uint64_t ps = 0;
  std::from_chars(digits.data(), digits.data() + whole_ps, ps);
  ps += digits[whole_ps] >= '5' ? 1 : 0;
  if (ps > static_cast<std::uint64_t>(kMax.ps())) return std::nullopt;
  return Duration{static_cast<std::int64_t>(ps)};
}

std::string Micros::print(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%lld.%06lld", d.ps() < 0 ? "-" : "",
                std::llabs(d.ps() / 1'000'000), std::llabs(d.ps() % 1'000'000));
  return buf;
}

std::string Micros::refusal() {
  return "needs a number of us in [0, " + std::to_string(kMax.ps() / 1'000'000) + "]";
}

}  // namespace nicbar::sim
