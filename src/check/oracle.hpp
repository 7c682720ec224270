// Differential oracle: the paper's Eq. 1-2 closed forms, compared against
// the simulator's exact integer output.
//
// The simulator computes barrier latency by executing millions of discrete
// events; the oracle computes the same quantity by summing the named cost
// terms of model::kTerms (Fig. 2's phases plus the costs Eq. 1-2 omit),
// which read the configuration structs only — two code paths that share
// nothing but the config values. In the contention-free regime
// (pairwise exchange, power-of-two group, every round in lockstep so no FIFO
// ever queues) the two must agree to the exact picosecond; everywhere else
// (gather/broadcast trees, non-power-of-two folds) queueing makes the closed
// form an approximation and the oracle asserts agreement within a stated
// tolerance instead.
//
// Steady-state extraction: run_barrier_experiment() with r and 2r
// repetitions, per-barrier cost = (total(2r) - total(r)) / r. The
// subtraction cancels the one-time transients (first-barrier connection
// setup, final completion skew), leaving the pure per-repetition increment
// in integer picoseconds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/runner.hpp"
#include "sim/time.hpp"

namespace nicbar::sim::check {

struct OracleCase {
  coll::Location location = coll::Location::kNic;
  nic::BarrierAlgorithm algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  std::size_t nodes = 2;
  nic::NicConfig nic = nic::lanai43();
  std::size_t gb_dimension = 2;  // GB only
};

struct OracleOutcome {
  std::string label;
  Duration predicted{0};  // closed-form per-barrier latency
  Duration simulated{0};  // steady-state per-barrier latency from the sim
  double rel_error = 0.0;
  bool exact = false;  // contention-free regime: must match to the ps
  bool pass = false;
};

struct OracleReport {
  std::vector<OracleOutcome> outcomes;
  std::size_t checked = 0;
  std::size_t exact_cases = 0;
  std::size_t failures = 0;
  double max_rel_error = 0.0;  // over the non-exact (tolerance) cases

  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Relative tolerances for the approximate (non-contention-free) cases,
/// chosen per family from the observed worst case of the full sweep with
/// ~30% margin (tests/check/oracle_test.cpp pins the observed max so drift
/// in either direction is caught):
///
///  - GB trees: sibling gathers queue at inner nodes; worst observed 0.42
///    (nic-gb-n15 on LANai 4.3).
///  - Non-power-of-two PE folds: the two extra fold exchanges desynchronise
///    the rounds, and the resulting pipeline stalls compound across the
///    steady-state repetitions far beyond the round-granularity critical
///    path; worst observed 0.72 (host-pe-n15/-n13 on LANai 4.3).
inline constexpr double kGbOracleTolerance = 0.55;
inline constexpr double kPeFoldOracleTolerance = 0.95;

/// True when (algorithm, nodes) is in the contention-free regime where the
/// closed form is exact: pairwise exchange over a power-of-two group.
[[nodiscard]] bool contention_free(nic::BarrierAlgorithm alg, std::size_t nodes);

/// Eq. 1 (host-based) / Eq. 2 (NIC-based) for the case's family, group size
/// and GB dimension: the model::kTerms sum, in exact integer picoseconds.
[[nodiscard]] Duration predict_barrier(const OracleCase& c, const gm::GmConfig& gm,
                                       const net::LinkParams& link, const net::SwitchParams& sw);

/// Steady-state per-barrier latency measured from two simulator runs.
[[nodiscard]] Duration measure_barrier(const OracleCase& c);

/// Runs one oracle comparison.
[[nodiscard]] OracleOutcome run_oracle_case(const OracleCase& c);

/// Full sweep: the closed-form families (FamilyRow::closed_form) x N in
/// [2,16] x {LANai 4.3, LANai 7.2}.
[[nodiscard]] OracleReport run_differential_oracle();

}  // namespace nicbar::sim::check
