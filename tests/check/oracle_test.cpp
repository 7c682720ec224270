// The differential-oracle leg of sim::check: the independent Eq. 1-2 closed
// forms must match the simulator bit-exactly in the contention-free regime
// and within the stated per-family tolerance everywhere else.
#include "check/oracle.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>

#include "coll/family.hpp"

namespace nicbar::sim::check {
namespace {

TEST(OracleTest, ContentionFreeRegimeIsPow2PairwiseExchange) {
  EXPECT_TRUE(contention_free(nic::BarrierAlgorithm::kPairwiseExchange, 2));
  EXPECT_TRUE(contention_free(nic::BarrierAlgorithm::kPairwiseExchange, 8));
  EXPECT_TRUE(contention_free(nic::BarrierAlgorithm::kPairwiseExchange, 16));
  EXPECT_FALSE(contention_free(nic::BarrierAlgorithm::kPairwiseExchange, 6));
  EXPECT_FALSE(contention_free(nic::BarrierAlgorithm::kPairwiseExchange, 1));
  EXPECT_FALSE(contention_free(nic::BarrierAlgorithm::kGatherBroadcast, 8));
}

TEST(OracleTest, TwoNodeClosedFormsMatchTheSimulatorExactly) {
  // The Fig. 2 chains, summed in per-job-truncated picoseconds. These two
  // constants also anchor the printed figures: 41.29 us and 45.52 us.
  OracleCase c;
  c.nodes = 2;
  c.location = coll::Location::kNic;
  OracleOutcome nic_pe = run_oracle_case(c);
  EXPECT_TRUE(nic_pe.exact);
  EXPECT_EQ(nic_pe.predicted.ps(), 41'291'285);
  EXPECT_EQ(nic_pe.simulated.ps(), 41'291'285);

  c.location = coll::Location::kHost;
  OracleOutcome host_pe = run_oracle_case(c);
  EXPECT_TRUE(host_pe.exact);
  EXPECT_EQ(host_pe.predicted.ps(), 45'515'527);
  EXPECT_EQ(host_pe.simulated.ps(), 45'515'527);
}

TEST(OracleTest, SteadyStateMeasurementCancelsTransients) {
  // The two-run subtraction must yield the pure per-repetition increment:
  // measuring twice gives the identical integer.
  OracleCase c;
  c.nodes = 4;
  EXPECT_EQ(measure_barrier(c).ps(), measure_barrier(c).ps());
}

TEST(OracleTest, FullSweepPassesAndPinsTheObservedError) {
  const OracleReport rep = run_differential_oracle();
  EXPECT_EQ(rep.checked, 120u);  // 2 clocks x 2 locations x 2 algorithms x n in [2,16]
  // 4 power-of-two group sizes x 2 locations x 2 clocks.
  EXPECT_EQ(rep.exact_cases, 16u);
  EXPECT_EQ(rep.failures, 0u) << [&] {
    std::string all;
    for (const auto& o : rep.outcomes) {
      if (!o.pass) all += o.label + " ";
    }
    return all;
  }();
  for (const auto& o : rep.outcomes) {
    if (o.exact) {
      EXPECT_EQ(o.predicted.ps(), o.simulated.ps()) << o.label;
    }
  }
  // Pin the observed worst case (currently host-pe-n15/-n13 on LANai 4.3 at
  // ~0.72) from both sides: above the tolerance means oracle failures, but a
  // silent *drop* would mean the simulator or the closed forms changed
  // behaviour — either way this test should make someone look.
  EXPECT_LE(rep.max_rel_error, kPeFoldOracleTolerance);
  EXPECT_GE(rep.max_rel_error, 0.5);
}

TEST(OracleTest, ClosedFormsMatchThePinnedPicoseconds) {
  // Every closed form to the picosecond, not just the exact cases: the
  // oracle's grid, every GB dimension at N = 8 and 16, and both PE rows at
  // N = 32 and 64 (Figure 2's model-only sizes), on both NICs. The pins are
  // one `label ps` line per case in closed_form_pins.txt.
  std::ifstream in(NICBAR_CLOSED_FORM_PINS);
  ASSERT_TRUE(in) << NICBAR_CLOSED_FORM_PINS;
  std::map<std::string, std::int64_t> pinned;
  std::string label;
  std::int64_t ps = 0;
  while (in >> label >> ps) pinned[label] = ps;

  const gm::GmConfig gm;
  const net::LinkParams link;
  const net::SwitchParams sw;
  std::set<std::string> seen;
  auto pin = [&](const coll::FamilyRow& row, std::size_t n, std::size_t dim,
                 const nic::NicConfig& cfg) {
    label = std::string(row.label) + "-n" + std::to_string(n) + "-d" + std::to_string(dim) + "-" +
            cfg.model;
    if (!seen.insert(label).second) return;
    const OracleCase c{row.spec.location, row.spec.algorithm, n, cfg, dim};
    const std::int64_t got = predict_barrier(c, gm, link, sw).ps();
    const auto it = pinned.find(label);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pin for " << label << ' ' << got;
    } else {
      EXPECT_EQ(got, it->second) << label;
    }
  };
  for (const nic::NicConfig& cfg : {nic::lanai43(), nic::lanai72()}) {
    for (const coll::FamilyRow& row : coll::kFamilies) {
      if (!row.closed_form) continue;
      for (std::size_t n = 2; n <= 16; ++n) pin(row, n, 2, cfg);
      if (row.dim == coll::DimRule::kGbDimension) {
        for (const std::size_t n : {8u, 16u}) {
          for (std::size_t d = 1; d < n; ++d) pin(row, n, d, cfg);
        }
      } else {
        for (const std::size_t n : {32u, 64u}) pin(row, n, 2, cfg);
      }
    }
  }
  EXPECT_EQ(seen.size(), pinned.size()) << "stale pins in " << NICBAR_CLOSED_FORM_PINS;
}

}  // namespace
}  // namespace nicbar::sim::check
