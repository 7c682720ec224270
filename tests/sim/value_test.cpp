// Value kinds: each reads its token exactly, refuses what it cannot hold,
// and prints a form that reads back to the same value.
#include "sim/value.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

namespace nicbar::sim {
namespace {

TEST(ValueKindTest, MicrosReadsToTheExactPicosecond) {
  const std::pair<const char*, std::int64_t> exact[] = {
      {"0", 0},          {"20", 20'000'000},  {"0.000498", 498},  {"2.5", 2'500'000},
      {"+.5", 500'000},  {"5.", 5'000'000},   {"3e2", 300'000'000}, {"1E-6", 1},
      {"0.0000004", 0},  {"0.0000005", 1},    {"1e-400", 0},      {"-0", 0},
      {"3600000000", 3'600'000'000'000'000}, {"3.6e9", 3'600'000'000'000'000},
      {"3600000000.0000004", 3'600'000'000'000'000}};
  for (const auto& [text, ps] : exact) {
    const std::optional<Duration> d = Micros::read(text);
    ASSERT_TRUE(d.has_value()) << text;
    EXPECT_EQ(d->ps(), ps) << text;
  }
  // The largest value is an hour; a picosecond more is refused.
  for (const char* bad : {"", ".", "-", "1e", "1e+", "-5", "-0.5", "1e300", "3600000000.000001",
                          "3600000000.0000005", "9223372036854.775807", "99999999999999999999",
                          "inf", "nan", "0x10", "5x", " 5"}) {
    EXPECT_FALSE(Micros::read(bad).has_value()) << bad;
  }
  EXPECT_EQ(Micros::print(Duration{498}), "0.000498");
  EXPECT_EQ(Micros::print(Micros::kMax), "3600000000.000000");
  EXPECT_EQ(Micros::refusal(), "needs a number of us in [0, 3600000000]");
}

TEST(ValueKindTest, IntegersAreWholeAndInRange) {
  constexpr Int kCount{1, 2147483647};
  EXPECT_EQ(kCount.read("+007"), 7);
  EXPECT_EQ(kCount.read("2147483647"), 2147483647);
  for (const char* bad : {"0", "2147483648", "4294967297", "2.5", "1e3", "-1", "", "5x",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(kCount.read(bad).has_value()) << bad;
  }
  EXPECT_EQ(kCount.refusal(), "needs an integer in [1, 2147483647]");
  EXPECT_EQ(kSeed.read("18446744073709551615"), 18446744073709551615u);
  EXPECT_FALSE(kSeed.read("18446744073709551616").has_value());
  EXPECT_FALSE(kSeed.read("-1").has_value());
}

TEST(ValueKindTest, RealsPrintTheShortestFormThatReadsBack) {
  constexpr Real kUnit{0.0, 1.0, false, true};
  for (const double v : {0.1234567, 0.3, 1e-9, 0.9999999}) {
    EXPECT_EQ(kUnit.read(Real::print(v)), v) << Real::print(v);
  }
  EXPECT_EQ(Real::print(1234567.0), "1234567");
  EXPECT_EQ(Real::print(20000.0), "20000");
  EXPECT_FALSE(kUnit.read("1").has_value());
  EXPECT_FALSE(kUnit.read("-0.5").has_value());
  EXPECT_EQ(kUnit.refusal(), "needs a number in [0, 1)");
  EXPECT_EQ((Real{0.0, std::numeric_limits<double>::max(), true}.refusal()), "needs a number > 0");
}

TEST(ValueKindTest, ClockIsBoundedByWhatCyclesAtMhzRepresents) {
  EXPECT_FALSE(kMhz.read("1e-300").has_value());
  EXPECT_FALSE(kMhz.read("2e6").has_value());
  ASSERT_TRUE(kMhz.read("0.001").has_value());
  ASSERT_TRUE(kMhz.read("1e6").has_value());
  // At both ends one cycle is a whole, positive number of picoseconds and
  // 2^32 cycles still fit in a Duration.
  EXPECT_EQ(cycles_at_mhz(1, kMhz.hi).ps(), 1);
  EXPECT_GT(cycles_at_mhz(std::int64_t{1} << 32, kMhz.lo).ps(), 0);
}

}  // namespace
}  // namespace nicbar::sim
