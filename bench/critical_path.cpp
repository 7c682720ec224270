// Critical-path attribution validated against the differential oracle's
// closed forms.
//
// Contention-free regime (NIC PE barrier, power-of-two group, lockstep): the
// causal tracer's per-segment attribution of a steady-state barrier must
// equal the model::kTerms rows on the causal chain, sliced by segment,
// EXACTLY, with every queue term zero (no FIFO ever has to wait).
//
// Under start skew or packet loss the same machinery reports *where* the
// extra time lands (queue terms, retransmission rounds); those rows are
// reported as attribution shares rather than asserted, since contention has
// no closed form. Non-zero exit if any exact check fails.
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "model/timing.hpp"
#include "sim/causal.hpp"

namespace {

using namespace nicbar;
using sim::causal::kSegmentCount;
using sim::causal::Segment;
using sim::Duration;

/// Runs one experiment with causal tracing attached and returns the tracer's
/// view via `tele` (the caller keeps it alive across the inspection).
coll::ExperimentResult run_traced(coll::ExperimentParams p, sim::telemetry::Telemetry& tele) {
  tele.enable_causal();
  p.cluster.telemetry = &tele;
  return coll::run_barrier_experiment(p);
}

int check_exact(std::size_t nodes, bench::BenchSummary& summary) {
  coll::ExperimentParams p = coll::experiment(nic::lanai43(), nodes, 50);
  p.spec = coll::family_spec({coll::Family::kNicPe});
  sim::telemetry::Telemetry tele;
  (void)run_traced(p, tele);
  const sim::causal::CausalTracer& causal = *tele.causal();

  int failures = 0;
  if (!causal.verify_acyclic()) {
    std::printf("  N=%-3zu FAIL: span graph is not acyclic\n", nodes);
    return 1;
  }
  // The last completed barrier is deep in steady state; its critical path is
  // the pure Eq. 2 chain.
  const sim::causal::CriticalPath path = causal.critical_path(causal.completed().back().sink);
  const model::Form form = model::form(p.spec, nodes);
  const model::Inputs in{p.cluster.nic, p.cluster.gm, p.cluster.link, p.cluster.sw};
  std::array<Duration, kSegmentCount> want{};
  for (const model::Term& t : model::kTerms) {
    if (t.causal) want[static_cast<std::size_t>(t.segment)] += model::charge(form, t, in);
  }

  Duration predicted{0};
  std::vector<std::pair<std::string, double>> metrics;
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    predicted += want[s];
    const char* name = sim::causal::to_string(static_cast<Segment>(s));
    if (path.self[s] != want[s]) {
      std::printf("  N=%-3zu FAIL: %-8s self %lld ps, closed form %lld ps\n", nodes, name,
                  static_cast<long long>(path.self[s].ps()),
                  static_cast<long long>(want[s].ps()));
      ++failures;
    }
    if (!path.queue[s].is_zero()) {
      std::printf("  N=%-3zu FAIL: %-8s queue %lld ps in the contention-free regime\n", nodes,
                  name, static_cast<long long>(path.queue[s].ps()));
      ++failures;
    }
    metrics.emplace_back(std::string(name) + "_us", path.self[s].us());
  }
  if (path.attributed() != path.total) {
    std::printf("  N=%-3zu FAIL: attribution %lld ps != total %lld ps\n", nodes,
                static_cast<long long>(path.attributed().ps()),
                static_cast<long long>(path.total.ps()));
    ++failures;
  }
  if (path.total != predicted) {
    std::printf("  N=%-3zu FAIL: path total %lld ps != Eq. 2 sum %lld ps\n", nodes,
                static_cast<long long>(path.total.ps()),
                static_cast<long long>(predicted.ps()));
    ++failures;
  }
  if (failures == 0) {
    std::printf("  N=%-3zu ok: %2zu-span path, %8.3f us, all 8 segments match to the ps\n",
                nodes, path.steps.size(), path.total.us());
  }
  metrics.emplace_back("total_us", path.total.us());
  metrics.emplace_back("predicted_us", predicted.us());
  metrics.emplace_back("exact_match", failures == 0 ? 1.0 : 0.0);
  summary.add("nic-pe-N" + std::to_string(nodes), std::move(metrics));
  return failures;
}

/// Aggregated attribution shares of a (possibly contended/lossy) run: where
/// the critical path spends its time, self + queue, as a percentage.
void report_profile(const char* title, const std::string& label,
                    const coll::ExperimentParams& p, bench::BenchSummary& summary) {
  sim::telemetry::Telemetry tele;
  const coll::ExperimentResult res = run_traced(p, tele);
  const sim::causal::PathProfile prof = tele.causal()->profile();
  std::printf("  %-22s", title);
  std::vector<std::pair<std::string, double>> metrics;
  Duration queue_total{0};
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    const Duration d = prof.self[s] + prof.queue[s];
    const double share = prof.total.is_zero() ? 0.0 : 100.0 * d.us() / prof.total.us();
    std::printf(" %s=%4.1f%%", sim::causal::to_string(static_cast<Segment>(s)), share);
    metrics.emplace_back(std::string(sim::causal::to_string(static_cast<Segment>(s))) +
                             "_share_pct",
                         share);
    queue_total += prof.queue[s];
  }
  const double n = prof.barriers > 0 ? static_cast<double>(prof.barriers) : 1.0;
  std::printf("  (queue %.2f us/barrier, %llu retrans)\n", queue_total.us() / n,
              static_cast<unsigned long long>(res.retransmissions));
  metrics.emplace_back("mean_total_us", prof.total.us() / n);
  metrics.emplace_back("mean_queue_us", queue_total.us() / n);
  metrics.emplace_back("retransmissions", static_cast<double>(res.retransmissions));
  summary.add(label, std::move(metrics));
}

}  // namespace

int main() {
  bench::BenchSummary summary("critical_path");
  bench::print_header("critical-path attribution vs Eq. 2 closed forms (NIC PE, lanai43)");

  int failures = 0;
  for (const std::size_t nodes : {2UL, 4UL, 8UL, 16UL}) {
    failures += check_exact(nodes, summary);
  }

  bench::print_header("attribution shift under contention and loss (16 nodes)");
  {
    coll::ExperimentParams p = coll::experiment(nic::lanai43(), 16, 50);
    p.spec = coll::family_spec({coll::Family::kNicPe});
    p.max_start_skew = sim::microseconds(50.0);
    report_profile("start skew 50us:", "skew-50us", p, summary);
  }
  {
    coll::ExperimentParams p = coll::experiment(nic::lanai43(), 16, 50);
    p.spec = coll::family_spec({coll::Family::kNicPe});
    p.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
    p.cluster.faults.loss.push_back({"", 0.02});
    p.cluster.faults.seed = p.seed;
    report_profile("loss 2% (shared):", "loss-2pct-shared", p, summary);
  }

  summary.write();
  if (failures > 0) {
    std::printf("\n%d attribution check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall contention-free attribution checks exact to the picosecond\n");
  return 0;
}
