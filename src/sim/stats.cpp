#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nicbar::sim {

double Accumulator::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) {
  const double span = hi_ - lo_;
  std::size_t idx = 0;
  if (span > 0) {
    const double f = (x - lo_) / span;
    const auto scaled = static_cast<std::int64_t>(f * static_cast<double>(counts_.size()));
    idx = static_cast<std::size_t>(
        std::clamp<std::int64_t>(scaled, 0, static_cast<std::int64_t>(counts_.size()) - 1));
  }
  if (x >= hi_) {
    ++above_;
    above_max_ = std::max(above_max_, x);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return lo_;
  // The top bin also holds the samples above the range, which rank last.
  const auto in_range = [this](std::size_t i) {
    return i + 1 == counts_.size() ? counts_[i] - above_ : counts_[i];
  };
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_);
  if (target <= 0.0) {
    // p = 0: the lower edge of the first occupied bin, not lo_ itself.
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (in_range(i) > 0) return bin_lower(i);
    }
    return above_ > 0 ? hi_ : lo_;
  }
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t n = in_range(i);
    if (n == 0) continue;  // empty bins cannot contain the target
    running += n;
    if (static_cast<double>(running) >= target) {
      // Linear interpolation within the bin: the target'th sample sits
      // (target - prev) / count of the way through [bin_lower, bin_upper).
      const double prev = static_cast<double>(running - n);
      const double frac = (target - prev) / static_cast<double>(n);
      return bin_lower(i) + frac * bin_width();
    }
  }
  // The rank falls among the samples above the range: nothing is known of
  // them but their largest, which bounds the percentile from above.
  return above_ > 0 ? above_max_ : hi_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::uint64_t peak = 0;
  for (std::uint64_t c : counts_) peak = std::max(peak, c);
  if (peak == 0) return "(empty histogram)\n";
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) * static_cast<double>(width));
    std::snprintf(line, sizeof line, "%10.3f |%-*s| %llu\n", bin_lower(i),
                  static_cast<int>(width),
                  std::string(bar, '#').c_str(), static_cast<unsigned long long>(counts_[i]));
    out += line;
  }
  return out;
}

}  // namespace nicbar::sim
