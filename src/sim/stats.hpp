// Statistics accumulators used by benchmarks and tests.
//
//   Accumulator — streaming count/mean/variance/min/max (Welford).
//   Histogram   — fixed-width bins over a caller-chosen range, with
//                 percentile estimation.
//   DurationStats — Accumulator specialised for sim::Duration, reporting
//                 in microseconds (the unit the paper uses throughout).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace nicbar::sim {

class Accumulator {
 public:
  void add(double x) {
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  void reset() { *this = Accumulator{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Accumulates sim::Duration samples; reports in microseconds.
class DurationStats {
 public:
  void add(Duration d) { acc_.add(d.us()); }
  [[nodiscard]] std::uint64_t count() const { return acc_.count(); }
  [[nodiscard]] double mean_us() const { return acc_.mean(); }
  [[nodiscard]] double min_us() const { return acc_.min(); }
  [[nodiscard]] double max_us() const { return acc_.max(); }
  void reset() { acc_.reset(); }

 private:
  Accumulator acc_;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples are clamped
/// into the edge bins so percentile estimates stay defined. A percentile
/// whose rank falls among the samples at or above `hi` reads as the largest
/// of them, never as a value inside the range.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return total_; }

  /// Percentile estimate for p in [0, 100], linearly interpolated within the
  /// containing bin. p=0 / p=100 return the lower / upper edge of the first /
  /// last non-empty bin, or the largest sample when one lies above the range.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return counts_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] double bin_width() const {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  /// [lower, upper) edges of bin `i`.
  [[nodiscard]] double bin_lower(std::size_t i) const {
    return lo_ + static_cast<double>(i) * bin_width();
  }
  [[nodiscard]] double bin_upper(std::size_t i) const { return bin_lower(i + 1); }

  [[nodiscard]] std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t above_ = 0;  // samples >= hi_, counted in the top bin too
  double above_max_ = std::numeric_limits<double>::lowest();
};

}  // namespace nicbar::sim
