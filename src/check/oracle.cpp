#include "check/oracle.hpp"

#include <cmath>

#include "coll/sweep.hpp"
#include "model/timing.hpp"

namespace nicbar::sim::check {

bool contention_free(nic::BarrierAlgorithm alg, std::size_t nodes) {
  if (alg != nic::BarrierAlgorithm::kPairwiseExchange) return false;
  return nodes >= 2 && (nodes & (nodes - 1)) == 0;
}

Duration predict_barrier(const OracleCase& c, const gm::GmConfig& gm,
                         const net::LinkParams& link, const net::SwitchParams& sw) {
  return model::sum(model::form(coll::spec(c.location, c.algorithm, c.gb_dimension), c.nodes),
                    {c.nic, gm, link, sw})
      .exact();
}

Duration measure_barrier(const OracleCase& c) {
  coll::ExperimentParams p = coll::experiment(c.nic, c.nodes);
  p.spec = coll::spec(c.location, c.algorithm, c.gb_dimension);
  const int r = 6;
  p.reps = r;
  const Duration total_r = coll::run_barrier_experiment(p).total;
  p.reps = 2 * r;
  const Duration total_2r = coll::run_barrier_experiment(p).total;
  return (total_2r - total_r) / r;
}

OracleOutcome run_oracle_case(const OracleCase& c) {
  OracleOutcome out;
  coll::ExperimentParams p = coll::experiment(c.nic, c.nodes);
  p.spec = coll::spec(c.location, c.algorithm, c.gb_dimension);
  out.label = coll::variant_label(p);
  const gm::GmConfig gm;
  const net::LinkParams link;
  const net::SwitchParams sw;
  out.predicted = predict_barrier(c, gm, link, sw);
  out.simulated = measure_barrier(c);
  out.exact = contention_free(c.algorithm, c.nodes);
  out.rel_error = out.predicted.ps() == 0
                      ? 1.0
                      : std::fabs(static_cast<double>(out.simulated.ps() - out.predicted.ps())) /
                            static_cast<double>(out.predicted.ps());
  const double tolerance = c.algorithm == nic::BarrierAlgorithm::kGatherBroadcast
                               ? kGbOracleTolerance
                               : kPeFoldOracleTolerance;
  out.pass = out.exact ? out.simulated == out.predicted : out.rel_error <= tolerance;
  return out;
}

OracleReport run_differential_oracle() {
  OracleReport rep;
  for (const bool lanai72 : {false, true}) {
    for (const coll::FamilyRow& row : coll::kFamilies) {
      if (!row.closed_form) continue;
      for (std::size_t n = 2; n <= 16; ++n) {
        OracleCase c;
        c.location = row.spec.location;
        c.algorithm = row.spec.algorithm;
        c.nodes = n;
        c.nic = lanai72 ? nic::lanai72() : nic::lanai43();
        const OracleOutcome out = run_oracle_case(c);
        ++rep.checked;
        if (out.exact) ++rep.exact_cases;
        if (!out.pass) ++rep.failures;
        if (!out.exact && out.rel_error > rep.max_rel_error) rep.max_rel_error = out.rel_error;
        rep.outcomes.push_back(out);
      }
    }
  }
  return rep;
}

}  // namespace nicbar::sim::check
