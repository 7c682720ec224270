// Property/fuzz harness: metamorphic properties of the simulator plus a
// seeded generator of random (topology, fault plan, workload) cases.
//
// Deterministic metamorphic properties (run once per suite):
//   - barrier latency is non-decreasing in group size, per variant
//   - doubling the NIC clock (LANai 4.3 -> 7.2) strictly reduces latency
//   - latency is invariant under rank permutation on a symmetric fabric
//     (exact, to the picosecond)
//   - a SweepPlan produces bit-identical results for any --jobs value
//   - workload specs survive a print -> parse round trip structurally
//
// Randomised fuzz cases: each case derives every choice (group size,
// topology and fabric shape, variant, fault plan, skew) from one 64-bit
// case seed, runs the experiment with the sim::check invariants armed, and
// asserts the run's accounting. A failing case is reproducible from its
// seed alone:
//
//   nicbar_run check --case-seed <seed>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coll/runner.hpp"

namespace nicbar::sim::check {

struct PropertyOptions {
  std::uint64_t seed = 1;
  /// Number of randomised fuzz cases (the deterministic metamorphic
  /// properties always run once each).
  std::size_t cases = 50;
};

struct PropertyFailure {
  std::string property;   // which property tripped
  std::uint64_t case_seed = 0;  // 0 for deterministic properties
  std::string detail;
};

struct PropertyReport {
  std::size_t properties_run = 0;
  std::size_t fuzz_cases_run = 0;
  std::vector<PropertyFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The case seed for fuzz case `index` of a suite (splitmix64 over the
/// suite seed), exposed so a failure printed by one invocation can be
/// replayed by another.
[[nodiscard]] std::uint64_t fuzz_case_seed(std::uint64_t suite_seed, std::size_t index);

/// Builds the fully-expanded experiment for one fuzz case seed.
[[nodiscard]] coll::ExperimentParams generate_fuzz_case(std::uint64_t case_seed,
                                                        std::string* summary = nullptr);

/// Runs exactly one fuzz case (reproduction path for `--case-seed`).
[[nodiscard]] PropertyReport run_fuzz_case(std::uint64_t case_seed);

/// Runs the deterministic properties plus `opts.cases` random fuzz cases.
[[nodiscard]] PropertyReport run_property_suite(const PropertyOptions& opts);

}  // namespace nicbar::sim::check
