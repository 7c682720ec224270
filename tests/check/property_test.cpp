// The property/fuzz leg of sim::check, sized for the tier-1 suite (the CI
// check job and `nicbar_run check` run the full 50+ case sweep).
#include "check/property.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "coll/family.hpp"
#include "fabric/topology.hpp"

namespace nicbar::sim::check {
namespace {

std::string describe(const PropertyReport& rep) {
  std::string out;
  for (const auto& f : rep.failures) {
    out += "[" + f.property + "] seed=" + std::to_string(f.case_seed) + ": " + f.detail + "\n";
  }
  return out;
}

TEST(PropertyTest, SuiteIsGreen) {
  const PropertyReport rep = run_property_suite({.seed = 1, .cases = 10});
  EXPECT_EQ(rep.properties_run, 5u);
  EXPECT_EQ(rep.fuzz_cases_run, 10u);
  EXPECT_TRUE(rep.ok()) << describe(rep);
}

TEST(PropertyTest, CaseSeedsAreStatelessAndDistinct) {
  // A failure printed by one invocation must be replayable by another, so
  // the per-case seed may depend only on (suite seed, index).
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::uint64_t s = fuzz_case_seed(7, i);
    EXPECT_EQ(s, fuzz_case_seed(7, i));
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(fuzz_case_seed(7, 0), fuzz_case_seed(8, 0));
}

TEST(PropertyTest, GeneratorIsDeterministicPerSeed) {
  std::string a, b;
  const auto pa = generate_fuzz_case(0xdeadbeef, &a);
  const auto pb = generate_fuzz_case(0xdeadbeef, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pa.nodes, pb.nodes);
  EXPECT_EQ(pa.reps, pb.reps);
  EXPECT_EQ(coll::family_of(pa.spec), coll::family_of(pb.spec));
  EXPECT_EQ(pa.spec.gb_dimension, pb.spec.gb_dimension);
  EXPECT_EQ(pa.cluster.faults.loss.size(), pb.cluster.faults.loss.size());
}

TEST(PropertyTest, GeneratorCoversFaultsAndBothLocations) {
  std::size_t faulty = 0, nic_loc = 0;
  std::array<std::size_t, coll::kFamilies.size()> per_family{};
  const std::size_t kCases = 200;
  for (std::size_t i = 0; i < kCases; ++i) {
    const auto p = generate_fuzz_case(fuzz_case_seed(3, i));
    ASSERT_GE(p.nodes, 2u);
    ASSERT_LE(p.nodes, 10u);
    ASSERT_GE(p.spec.gb_dimension, 1u);
    ASSERT_LT(p.spec.gb_dimension, p.nodes);
    const coll::FamilyRow& row = coll::family_row(coll::family_of(p.spec));
    if (!p.cluster.faults.empty()) {
      ++faulty;
      if (row.completes_on_nic) {
        // Lossy NIC-based cases must run a reliable barrier mode, or stalls
        // would be by-design rather than bugs.
        EXPECT_NE(p.cluster.nic.barrier_reliability, nic::BarrierReliability::kUnreliable);
      }
    }
    if (row.location == coll::Location::kNic) ++nic_loc;
    ++per_family[static_cast<std::size_t>(row.family)];
  }
  // ~50% fault injection, 3 of 7 families on the NIC, every family drawn:
  // demand real mixing.
  EXPECT_GT(faulty, kCases / 5);
  EXPECT_LT(faulty, kCases * 4 / 5);
  EXPECT_GT(nic_loc, kCases / 5);
  EXPECT_LT(nic_loc, kCases * 4 / 5);
  for (const coll::FamilyRow& row : coll::kFamilies) {
    EXPECT_GT(per_family[static_cast<std::size_t>(row.family)], kCases / 20) << row.label;
  }
}

TEST(PropertyTest, GeneratorDrawsEveryTopologyWithShapesThatHoldTheCase) {
  std::size_t single = 0, fat_tree = 0, leaf_spine = 0, three_level = 0, lossy_fabric = 0;
  const std::size_t kCases = 300;
  for (std::size_t i = 0; i < kCases; ++i) {
    const auto p = generate_fuzz_case(fuzz_case_seed(5, i));
    const host::ClusterParams& c = p.cluster;
    if (c.topology == host::Topology::kSingleSwitch) {
      ++single;
      continue;
    }
    const bool ft = c.topology == host::Topology::kFatTree;
    ++(ft ? fat_tree : leaf_spine);
    EXPECT_GE(c.fabric_radix, 3u);
    EXPECT_LE(c.fabric_radix, 8u);
    EXPECT_GE(c.fabric_oversub, 1u);
    EXPECT_LE(c.fabric_oversub, 3u);
    EXPECT_GE(fabric::capacity(ft ? fabric::Kind::kFatTree : fabric::Kind::kLeafSpine,
                               c.fabric_radix, c.fabric_oversub),
              p.nodes);
    // Beyond radix·h hosts a fat-tree needs its third level.
    const std::size_t h = c.fabric_radix - std::max<std::size_t>(
                                               1, c.fabric_radix / (1 + c.fabric_oversub));
    if (ft && p.nodes > c.fabric_radix * h) ++three_level;
    if (!c.faults.empty()) ++lossy_fabric;
  }
  EXPECT_GT(single, kCases / 5);
  EXPECT_GT(fat_tree, kCases / 5);
  EXPECT_GT(leaf_spine, kCases / 5);
  EXPECT_GT(three_level, 0u);
  EXPECT_GT(lossy_fabric, kCases / 10);
}

TEST(PropertyTest, SingleCaseReplayMatchesTheSuitePath) {
  const PropertyReport rep = run_fuzz_case(fuzz_case_seed(1, 0));
  EXPECT_EQ(rep.fuzz_cases_run, 1u);
  EXPECT_TRUE(rep.ok()) << describe(rep);
}

}  // namespace
}  // namespace nicbar::sim::check
