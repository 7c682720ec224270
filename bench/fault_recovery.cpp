// PR 2 robustness bench: barrier latency under packet loss, and time-to-
// recover after a fabric outage, comparing the fixed 1 ms retransmission
// timeout against the adaptive (Jacobson/Karels) RTO.
//
// The paper measured on a lossless Myrinet; this bench answers the follow-up
// question a production deployment would ask: how gracefully does the NIC
// barrier degrade when the fabric misbehaves? Two experiments:
//
//   1. Degradation curve — mean 8-node PE barrier latency (shared-stream
//      reliability) as i.i.d. loss sweeps 0 .. 5%, fixed vs adaptive RTO.
//   2. Time-to-recover — every link goes down for a window mid-run; report
//      how long after the fabric heals the first barrier completes.
//
// The adaptive RTO should strictly beat the fixed timeout at 1% loss: a
// measured RTT of tens of microseconds makes a 1 ms stall per drop absurd.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "sim/fault.hpp"

namespace {

using namespace nicbar;

coll::ExperimentResult run_lossy(double loss, bool adaptive, int reps) {
  coll::ExperimentParams p = coll::experiment(nic::lanai43(), 8, reps);
  p.spec = coll::family_spec({coll::Family::kNicPe});
  p.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  p.cluster.nic.adaptive_rto = adaptive;
  if (loss > 0.0) {
    p.cluster.faults.loss.push_back({"", loss});
    p.cluster.faults.seed = 7;
  }
  return coll::run_barrier_experiment(p);
}

/// All links down during [from, until); barriers loop continuously. Returns
/// the gap between the fabric healing and the first barrier completion after
/// it (us), or a negative value if nothing ever completed post-outage.
double time_to_recover_us(bool adaptive, sim::SimTime from, sim::SimTime until) {
  host::ClusterParams cp;
  cp.nodes = 8;
  cp.nic = nic::lanai43();
  cp.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  cp.nic.adaptive_rto = adaptive;
  cp.faults.link_down.push_back({"", from, until});
  host::Cluster cluster(cp);

  std::vector<gm::Endpoint> group;
  for (net::NodeId i = 0; i < 8; ++i) group.push_back(gm::Endpoint{i, 2});
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  for (net::NodeId i = 0; i < 8; ++i) {
    ports.push_back(cluster.open_port(i, 2));
    members.push_back(std::make_unique<coll::BarrierMember>(
        *ports.back(), group, coll::family_spec({coll::Family::kNicPe})));
  }
  // Member 0's completion times stand in for the group (a barrier completes
  // everywhere within one round-trip of completing anywhere).
  std::vector<sim::SimTime> completions;
  for (std::size_t i = 0; i < members.size(); ++i) {
    cluster.sim().spawn([](sim::Simulator& s, coll::BarrierMember& mem,
                           std::vector<sim::SimTime>* out) -> sim::Task {
      for (int k = 0; k < 400; ++k) {
        const coll::BarrierStatus st = co_await mem.run();
        if (st != coll::BarrierStatus::kOk) break;
        if (out != nullptr) out->push_back(s.now());
      }
    }(cluster.sim(), *members[i], i == 0 ? &completions : nullptr));
  }
  cluster.sim().run(sim::SimTime{0} + sim::seconds(1.0));

  for (const sim::SimTime& t : completions) {
    if (t >= until) return (t - until).us();
  }
  return -1.0;
}

}  // namespace

int main() {
  using namespace nicbar;

  bench::print_header("Degradation curve: 8-node NIC-PE, shared-stream reliability, 200 reps");
  std::printf("%8s | %14s %10s | %14s %10s\n", "loss", "fixed-RTO(us)", "timeouts",
              "adaptive(us)", "timeouts");
  const double losses[] = {0.0, 0.001, 0.005, 0.01, 0.02, 0.05};
  double fixed_1pct = 0.0, adaptive_1pct = 0.0;
  for (double loss : losses) {
    const coll::ExperimentResult rf = run_lossy(loss, /*adaptive=*/false, 200);
    const coll::ExperimentResult ra = run_lossy(loss, /*adaptive=*/true, 200);
    std::printf("%7.1f%% | %14.2f %10llu | %14.2f %10llu\n", loss * 100.0, rf.mean_us,
                static_cast<unsigned long long>(rf.retransmit_timeouts), ra.mean_us,
                static_cast<unsigned long long>(ra.retransmit_timeouts));
    if (loss == 0.01) {
      fixed_1pct = rf.mean_us;
      adaptive_1pct = ra.mean_us;
    }
  }
  std::printf("\nat 1%% loss the adaptive RTO %s the fixed 1 ms timeout "
              "(%.2f us vs %.2f us per barrier)\n",
              adaptive_1pct < fixed_1pct ? "beats" : "DOES NOT BEAT", adaptive_1pct,
              fixed_1pct);

  bench::print_header("Time-to-recover: all links down for 500 us mid-run (8-node NIC-PE)");
  const sim::SimTime from = sim::SimTime{0} + sim::microseconds(200.0);
  const sim::SimTime until = from + sim::microseconds(500.0);
  const double ttr_fixed = time_to_recover_us(/*adaptive=*/false, from, until);
  const double ttr_adaptive = time_to_recover_us(/*adaptive=*/true, from, until);
  std::printf("  fixed RTO    : first barrier %8.2f us after the fabric heals\n", ttr_fixed);
  std::printf("  adaptive RTO : first barrier %8.2f us after the fabric heals\n", ttr_adaptive);
  std::printf("\nexpected: adaptive recovers faster on both counts — its RTO tracks the\n"
              "~10 us measured RTT instead of stalling a full (backed-off) millisecond\n");
  return 0;
}
