// The PDES acceptance gate: a partitioned run is not "approximately" the
// serial run — it IS the serial run, to the picosecond, for every barrier
// family, node count, partition count, and worker count. Each case runs the
// serial engine once and the partitioned engine at several (partitions,
// workers) points, then EXPECT_EQs:
//
//   - the total loop time and per-member completion times (integer ps),
//   - every snapshot_metrics counter and gauge (NIC, engine, PCI, link,
//     switch, injection totals),
//   - the canonicalized causal record: completion tuples, per-barrier
//     critical-path totals, and the aggregated per-segment attribution.
//
// A lossy + fault-plan case pins RNG substream partition-independence: drop
// and corruption draws are per-link streams keyed by arming order, so the
// partition layout must not perturb a single draw. A link-down case pins the
// down windows, which each link reads on its own lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "sim/causal.hpp"
#include "sim/fault.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"

namespace nicbar {
namespace {

struct EngineConfig {
  std::size_t partitions = 1;
  unsigned workers = 1;
};

// Everything observable about one experiment run, ready for operator==.
struct Observed {
  sim::Duration total{0};
  std::vector<sim::SimTime> member_ends;
  std::uint64_t barriers_completed = 0;
  std::uint64_t barrier_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t drops = 0;
  std::uint64_t failures = 0;
  std::uint64_t stalled = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  // Canonical causal record (empty when the case skips tracing).
  std::vector<std::tuple<std::uint32_t, std::uint16_t, std::uint32_t, std::int64_t>> completed;
  std::uint64_t profile_barriers = 0;
  std::int64_t profile_total_ps = 0;
  std::vector<std::int64_t> profile_self;
  std::vector<std::int64_t> profile_queue;
};

struct CaseSpec {
  coll::ExperimentParams params;
  bool causal = false;
};

Observed run_case(const CaseSpec& spec, const EngineConfig& engine) {
  coll::ExperimentParams p = spec.params;
  p.cluster.pdes_partitions = engine.partitions;
  p.cluster.pdes_workers = engine.workers;

  sim::telemetry::Telemetry tel;
  if (spec.causal) tel.enable_causal();
  p.cluster.telemetry = &tel;

  const coll::ExperimentResult r = coll::run_barrier_experiment(p);

  Observed o;
  o.total = r.total;
  o.member_ends = r.member_end_times;
  o.barriers_completed = r.barriers_completed;
  o.barrier_packets = r.barrier_packets_sent;
  o.retransmissions = r.retransmissions;
  o.drops = r.link_packets_dropped;
  o.failures = r.barrier_failures;
  o.stalled = r.stalled_members;
  o.counters = tel.metrics().counters();
  o.gauges = tel.metrics().gauges();

  if (spec.causal) {
    sim::causal::CausalTracer* tracer = tel.causal();
    // Serial runs record in a single arena; canonicalize anyway so span ids
    // are content-derived on both sides (idempotent on a canonical tracer).
    tracer->canonicalize();
    for (const sim::causal::CompletedBarrier& b : tracer->completed()) {
      o.completed.emplace_back(b.node, b.port, b.epoch, b.total.ps());
    }
    const sim::causal::PathProfile prof = tracer->profile();
    o.profile_barriers = prof.barriers;
    o.profile_total_ps = prof.total.ps();
    for (std::size_t s = 0; s < sim::causal::kSegmentCount; ++s) {
      o.profile_self.push_back(prof.self[s].ps());
      o.profile_queue.push_back(prof.queue[s].ps());
    }
  }
  return o;
}

void expect_identical(const Observed& serial, const Observed& par, const std::string& what) {
  EXPECT_EQ(serial.total.ps(), par.total.ps()) << what;
  ASSERT_EQ(serial.member_ends.size(), par.member_ends.size()) << what;
  for (std::size_t i = 0; i < serial.member_ends.size(); ++i) {
    EXPECT_EQ(serial.member_ends[i].ps(), par.member_ends[i].ps()) << what << " member " << i;
  }
  EXPECT_EQ(serial.barriers_completed, par.barriers_completed) << what;
  EXPECT_EQ(serial.barrier_packets, par.barrier_packets) << what;
  EXPECT_EQ(serial.retransmissions, par.retransmissions) << what;
  EXPECT_EQ(serial.drops, par.drops) << what;
  EXPECT_EQ(serial.failures, par.failures) << what;
  EXPECT_EQ(serial.stalled, par.stalled) << what;
  EXPECT_EQ(serial.counters, par.counters) << what;
  EXPECT_EQ(serial.gauges, par.gauges) << what;
  EXPECT_EQ(serial.completed, par.completed) << what;
  EXPECT_EQ(serial.profile_barriers, par.profile_barriers) << what;
  EXPECT_EQ(serial.profile_total_ps, par.profile_total_ps) << what;
  EXPECT_EQ(serial.profile_self, par.profile_self) << what;
  EXPECT_EQ(serial.profile_queue, par.profile_queue) << what;
}

// The (partitions, workers) sweep every case is checked at. Varying both
// proves the timeline depends on neither; workers > partitions exercises
// the pool's clamp-free sharding.
const EngineConfig kEngines[] = {{2, 2}, {4, 4}, {8, 8}, {4, 2}, {2, 8}};

void check_case(const CaseSpec& spec, const std::string& name) {
  const Observed serial = run_case(spec, EngineConfig{1, 1});
  // The host-located family completes in the host library, not the NIC
  // engine, so the NIC counters can legitimately read 0 — prove progress via
  // elapsed time and clean termination (stalled == 0 means every member ran
  // its full rep loop to completion) instead.
  ASSERT_GT(serial.total.ps(), 0) << name << ": serial baseline took zero time";
  ASSERT_EQ(serial.failures, 0u) << name;
  ASSERT_EQ(serial.stalled, 0u) << name;
  for (const EngineConfig& e : kEngines) {
    const Observed par = run_case(spec, e);
    expect_identical(serial, par,
                     name + " [P=" + std::to_string(e.partitions) +
                         " W=" + std::to_string(e.workers) + "]");
  }
}

CaseSpec base_case(std::size_t nodes, int reps) {
  CaseSpec c;
  c.params.nodes = nodes;
  c.params.reps = reps;
  c.params.cluster.nodes = nodes;
  return c;
}

TEST(PdesBitIdentity, FlatPairwiseExchange) {
  for (const std::size_t n : {16u, 64u, 256u}) {
    CaseSpec c = base_case(n, n <= 64 ? 3 : 2);
    c.params.spec.location = coll::Location::kNic;
    c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
    c.causal = n <= 64;
    check_case(c, "flat-pe-n" + std::to_string(n));
  }
}

TEST(PdesBitIdentity, FlatGatherBroadcast) {
  for (const std::size_t n : {16u, 64u, 256u}) {
    CaseSpec c = base_case(n, n <= 64 ? 3 : 2);
    c.params.spec.location = coll::Location::kNic;
    c.params.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
    c.params.spec.gb_dimension = 4;
    c.causal = n <= 64;
    check_case(c, "flat-gb-n" + std::to_string(n));
  }
}

TEST(PdesBitIdentity, HostDissemination) {
  // The host-based family: PE rounds driven from host processes over GM
  // send/receive — the heaviest host<->NIC interleaving of the four.
  for (const std::size_t n : {16u, 64u, 256u}) {
    CaseSpec c = base_case(n, n <= 64 ? 3 : 2);
    c.params.spec.location = coll::Location::kHost;
    c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
    c.causal = n <= 64;
    check_case(c, "host-dissem-n" + std::to_string(n));
  }
}

TEST(PdesBitIdentity, HierarchicalFatTree) {
  // Leaf-aligned partitioning: nodes share a lane with their leaf switch,
  // representatives cross partitions through the spine.
  for (const std::size_t n : {16u, 64u, 256u}) {
    CaseSpec c = base_case(n, n <= 64 ? 3 : 2);
    c.params.cluster.topology = host::Topology::kFatTree;
    c.params.cluster.fabric_radix = 16;
    c.params.spec.hierarchical = true;
    c.causal = n <= 64;
    check_case(c, "hier-fat-tree-n" + std::to_string(n));
  }
}

TEST(PdesBitIdentity, FlatPairwiseExchangeThreeLevelFatTree) {
  // An oversubscribed three-level fat-tree (radix 6 at 2:1: 16 leaves in 4
  // pods, 8 aggregation switches, 4 cores): flat PE crosses pods, so every
  // lane's aggregation switches exchange through cores dealt over the lanes.
  CaseSpec c = base_case(64, 3);
  c.params.cluster.topology = host::Topology::kFatTree;
  c.params.cluster.fabric_radix = 6;
  c.params.cluster.fabric_oversub = 2;
  c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  c.causal = true;
  check_case(c, "pe-fat-tree-3-level-n64");
}

TEST(PdesBitIdentity, LossyWithFaultPlan) {
  // Per-link RNG substreams (drop, burst, corruption) are derived from the
  // plan seed in arming order and consumed in transmit order — both
  // partition-independent, so retransmission timelines must match exactly.
  CaseSpec c = base_case(16, 4);
  c.params.spec.location = coll::Location::kNic;
  c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  c.causal = true;

  sim::fault::UniformLoss loss;
  loss.link = "*";
  loss.prob = 0.02;
  c.params.cluster.faults.loss.push_back(loss);
  sim::fault::Corruption corr;
  corr.link = "*";
  corr.prob = 0.01;
  c.params.cluster.faults.corruption.push_back(corr);
  c.params.cluster.faults.seed = 0xfeedULL;

  const Observed serial = run_case(c, EngineConfig{1, 1});
  ASSERT_GT(serial.drops + serial.retransmissions, 0u)
      << "lossy case drew no faults - the RNG-independence claim is untested";
  for (const EngineConfig& e : kEngines) {
    expect_identical(serial, run_case(c, e),
                     std::string("lossy [P=") + std::to_string(e.partitions) +
                         " W=" + std::to_string(e.workers) + "]");
  }
}

TEST(PdesBitIdentity, LinkDownWindowsOnPartitionCrossingLinks) {
  // Down windows are data on a link, read on its transmitting lane at each
  // packet's ready instant. A radix-8 fat-tree of 16 nodes has 4 leaves
  // (sw0-sw3) and 4 spines (sw4-sw7); sw0->sw5 and sw2->sw4 cross a
  // partition boundary at 2 and at 4 partitions. sw0->sw5 carries two
  // overlapping windows, sw2->sw4 a window listed after a later one.
  CaseSpec c = base_case(16, 10);
  c.params.cluster.topology = host::Topology::kFatTree;
  c.params.cluster.fabric_radix = 8;
  c.params.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  c.params.spec.location = coll::Location::kNic;
  c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  c.params.cluster.faults = sim::fault::parse_fault_plan(
      "link-down 50 60 sw0->sw5\n"
      "link-down 55 85 sw0->sw5\n"
      "link-down 410 420 sw2->sw4\n"
      "link-down 10 20 sw2->sw4\n");
  c.causal = true;

  const Observed serial = run_case(c, EngineConfig{1, 1});
  ASSERT_GT(serial.counters.at("link.sw0->sw5.down_drops"), 0u);
  ASSERT_GT(serial.counters.at("link.sw2->sw4.down_drops"), 0u);
  check_case(c, "link-down-fat-tree-n16");
}

TEST(PdesBitIdentity, StartSkewAndPermutedPlacement) {
  // Skewed arrivals plus a non-identity node placement: partition
  // boundaries cut through the member order, not just node blocks.
  CaseSpec c = base_case(16, 3);
  c.params.spec.location = coll::Location::kNic;
  c.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  c.params.max_start_skew = sim::Duration{50'000'000};  // 50 us
  c.params.seed = 7;
  for (std::size_t i = 0; i < 16; ++i) {
    c.params.node_order.push_back(static_cast<net::NodeId>((i * 5) % 16));
  }
  c.causal = true;
  check_case(c, "skew-permuted");
}

}  // namespace
}  // namespace nicbar
