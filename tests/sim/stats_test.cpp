#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nicbar::sim {
namespace {

using namespace nicbar::sim::literals;

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(AccumulatorTest, SingleSample) {
  Accumulator a;
  a.add(5.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(AccumulatorTest, KnownMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(AccumulatorTest, NegativeValues) {
  Accumulator a;
  a.add(-3.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(AccumulatorTest, ResetClears) {
  Accumulator a;
  a.add(1.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
}

TEST(DurationStatsTest, ReportsMicroseconds) {
  DurationStats s;
  s.add(100_us);
  s.add(300_us);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean_us(), 200.0);
  EXPECT_DOUBLE_EQ(s.min_us(), 100.0);
  EXPECT_DOUBLE_EQ(s.max_us(), 300.0);
}

TEST(HistogramTest, CountsIntoBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bins()[0], 1u);
  EXPECT_EQ(h.bins()[1], 2u);
  EXPECT_EQ(h.bins()[9], 1u);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(HistogramTest, PercentilesAboveTheRangeReadTheLargestSample) {
  // Eight samples in range, two far above it: they share the top bin, but a
  // rank among them reads their largest, not a value inside the range.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 8; ++i) h.add(9.5);
  h.add(5000.0);
  h.add(70.0);
  EXPECT_EQ(h.bins().back(), 10u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 9.625);  // in range: interpolates the 8
  EXPECT_DOUBLE_EQ(h.percentile(80), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 5000.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5000.0);
  Histogram all_above(0.0, 10.0, 10);
  all_above.add(20.0);
  EXPECT_DOUBLE_EQ(all_above.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(all_above.percentile(50), 20.0);
}

TEST(HistogramTest, PercentilesOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(90), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(0), 0.0, 1.5);
  EXPECT_NEAR(h.percentile(100), 100.0, 1.5);
}

TEST(HistogramTest, EmptyPercentileIsLowerBound) {
  Histogram h(5.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
}

TEST(HistogramTest, SingleSampleInterpolatesWithinItsBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(3.7);  // lands in [3, 4)
  EXPECT_EQ(h.count(), 1u);
  // A one-sample population: every percentile interpolates through the one
  // occupied bin, from its lower edge (p=0) to its upper edge (p=100).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
}

TEST(HistogramTest, AllSamplesInOneBinSpanThatBin) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 1000; ++i) h.add(55.0);  // all in [50, 60)
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 55.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.9), 59.99);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 60.0);
}

TEST(HistogramTest, P999ResolvesASparseTail) {
  // 999 fast samples and 2 slow outliers: p99.8 stays in the fast bin but
  // p99.9 must cross into the tail — the resolution SLO reporting leans on.
  Histogram h(0.0, 1000.0, 1000);
  for (int i = 0; i < 999; ++i) h.add(10.5);
  h.add(900.5);
  h.add(900.5);
  EXPECT_LE(h.percentile(99.8), 11.0);
  EXPECT_GT(h.percentile(99.9), 900.0);
  EXPECT_LT(h.percentile(99.9), 901.0);
}

TEST(HistogramTest, BinGeometryAccessors) {
  Histogram h(10.0, 50.0, 8);
  EXPECT_DOUBLE_EQ(h.lo(), 10.0);
  EXPECT_DOUBLE_EQ(h.hi(), 50.0);
  EXPECT_EQ(h.bin_count(), 8u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 15.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(7), 45.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(7), 50.0);
}

// Regression: pins the interpolation exactly. With one sample per bin the
// p-th percentile is the upper edge of the bin holding the p-th sample; a
// regressed implementation that returns the bin's lower edge (or skips the
// within-bin interpolation) lands a full bin width away.
TEST(HistogramTest, PercentileInterpolationPinned) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  // A fractional target interpolates within the bin: the 10.5th of 100
  // samples sits half-way through bin 10.
  EXPECT_DOUBLE_EQ(h.percentile(10.5), 10.5);
}

TEST(HistogramTest, PercentileSkipsEmptyBins) {
  // Two occupied bins far apart; everything between is empty.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 10; ++i) h.add(5.5);   // bin 5
  for (int i = 0; i < 10; ++i) h.add(90.5);  // bin 90
  EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);    // lower edge of first occupied bin
  EXPECT_DOUBLE_EQ(h.percentile(25), 5.5);   // 5th of 10 samples in bin 5
  EXPECT_DOUBLE_EQ(h.percentile(50), 6.0);   // upper edge of bin 5
  EXPECT_DOUBLE_EQ(h.percentile(75), 90.5);  // 5th of 10 samples in bin 90
  EXPECT_DOUBLE_EQ(h.percentile(100), 91.0);
}

TEST(HistogramTest, AsciiRendering) {
  Histogram h(0.0, 4.0, 4);
  EXPECT_NE(h.ascii().find("empty"), std::string::npos);
  h.add(1.0);
  h.add(1.2);
  h.add(3.0);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace nicbar::sim
