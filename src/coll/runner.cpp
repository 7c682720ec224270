#include "coll/runner.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/sweep.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace nicbar::coll {

namespace {

// `failed` / `finished` are this member's private slots (summed by the
// driver after the run): members on different PDES lanes execute
// concurrently, so a shared counter would be a data race.
sim::Task member_proc(sim::Simulator& sim, BarrierMember& member, int reps,
                      sim::Duration skew, sim::SimTime* t_start, sim::SimTime* t_end,
                      std::uint8_t* failed, std::uint8_t* finished,
                      sim::check::BarrierSafetyMonitor* monitor, std::size_t member_index) {
  if (!skew.is_zero()) co_await sim.delay(skew);
  if (t_start != nullptr) *t_start = sim.now();
  for (int r = 0; r < reps; ++r) {
    if (monitor != nullptr) monitor->arrive(member_index, sim.now());
    const BarrierStatus st = co_await member.run();
    if (st != BarrierStatus::kOk) {
      // The group is broken (dead peer or expired deadline): stop looping
      // rather than spinning out `reps` instant failures.
      if (failed != nullptr) *failed = 1;
      break;
    }
    if (monitor != nullptr) monitor->complete(member_index, sim.now());
  }
  if (t_end != nullptr) *t_end = sim.now();
  if (finished != nullptr) *finished = 1;
}

std::vector<net::NodeId> resolve_node_order(const ExperimentParams& params) {
  std::vector<net::NodeId> order = params.node_order;
  if (order.empty()) {
    order.reserve(params.nodes);
    for (std::size_t i = 0; i < params.nodes; ++i) order.push_back(static_cast<net::NodeId>(i));
    return order;
  }
  if (order.size() != params.nodes) {
    throw std::invalid_argument("node_order must have exactly `nodes` entries");
  }
  std::vector<bool> seen(params.nodes, false);
  for (net::NodeId n : order) {
    const auto idx = static_cast<std::size_t>(n);
    if (idx >= params.nodes || seen[idx]) {
      throw std::invalid_argument("node_order must be a permutation of 0..nodes-1");
    }
    seen[idx] = true;
  }
  return order;
}

}  // namespace

ExperimentResult run_barrier_experiment(const ExperimentParams& params) {
  if (params.nodes == 0) throw std::invalid_argument("need at least one node");
  host::ClusterParams cp = params.cluster;
  cp.nodes = params.nodes;
  host::Cluster cluster(cp);

  const std::vector<net::NodeId> order = resolve_node_order(params);

  const BarrierSpec spec = with_leaf_blocks(params.spec, cluster);

  std::vector<Endpoint> group;
  group.reserve(params.nodes);
  for (std::size_t i = 0; i < params.nodes; ++i) {
    group.push_back(Endpoint{order[i], params.port});
  }
  // One list for the whole group, handed to every member.
  const auto list = std::make_shared<const MemberList>(group);

  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<BarrierMember>> members;
  ports.reserve(params.nodes);
  members.reserve(params.nodes);
  for (std::size_t i = 0; i < params.nodes; ++i) {
    ports.push_back(cluster.open_port(order[i], params.port));
    members.push_back(std::make_unique<BarrierMember>(*ports.back(), list, spec));
  }

  sim::Rng rng(params.seed);
  std::vector<sim::SimTime> starts(params.nodes), ends(params.nodes);
  std::vector<std::uint8_t> failed(params.nodes, 0);
  std::vector<std::uint8_t> finished_flags(params.nodes, 0);
  std::unique_ptr<sim::check::BarrierSafetyMonitor> monitor;
  if (params.check_invariants) {
    monitor = std::make_unique<sim::check::BarrierSafetyMonitor>(params.nodes);
  }
  for (std::size_t i = 0; i < params.nodes; ++i) {
    sim::Duration skew{0};
    if (!params.max_start_skew.is_zero()) {
      skew = sim::Duration{static_cast<std::int64_t>(
          rng.uniform() * static_cast<double>(params.max_start_skew.ps()))};
    }
    // Each member runs on the simulator lane that owns its node — the serial
    // engine when the cluster is unpartitioned.
    sim::Simulator& lane = cluster.sim_for(order[i]);
    lane.spawn(member_proc(lane, *members[i], params.reps, skew, &starts[i], &ends[i],
                           &failed[i], &finished_flags[i], monitor.get(), i));
  }
  cluster.run_all();
  cluster.snapshot_metrics();  // no-op unless params.cluster.telemetry is set

  std::uint64_t failures = 0;
  std::uint64_t finished = 0;
  for (std::size_t i = 0; i < params.nodes; ++i) {
    failures += failed[i];
    finished += finished_flags[i];
  }

  if (params.check_invariants) {
    // The event queue is drained, so the fabric is quiescent: every packet
    // ever injected must now be accounted for on each link and switch.
    cluster.network().for_each_link([](net::Link& l) { l.verify_conservation(); });
    for (std::size_t s = 0; s < cluster.network().switch_count(); ++s) {
      cluster.network().switch_at(static_cast<int>(s)).verify_conservation();
    }
  }

  // The barrier loop is over when the *last* member finishes its last
  // barrier; it began when the last member started (all members must be in
  // before any barrier can complete).
  sim::SimTime begin{0}, end{0};
  for (std::size_t i = 0; i < params.nodes; ++i) {
    if (starts[i] > begin) begin = starts[i];
    if (ends[i] > end) end = ends[i];
  }

  ExperimentResult res;
  res.reps = params.reps;
  res.nodes = params.nodes;
  res.total = end - begin;
  res.total_us = res.total.us();
  res.mean_us = res.total_us / params.reps;
  res.barrier_failures = failures;
  res.stalled_members = params.nodes - finished;
  res.member_end_times = ends;
  for (std::size_t i = 0; i < params.nodes; ++i) {
    const nic::NicStats& s = cluster.nic(static_cast<net::NodeId>(i)).stats();
    res.barrier_packets_sent += s.barrier_packets_sent;
    res.retransmissions += s.retransmissions;
    res.unexpected_recorded += s.unexpected_recorded;
    res.bit_collisions += s.bit_collisions;
    res.barriers_completed += s.barriers_completed;
    res.retransmit_timeouts += s.retransmit_timeouts;
    res.rto_backoffs += s.rto_backoffs;
    res.rtt_samples += s.rtt_samples;
    res.crc_drops += s.crc_drops;
    res.connections_failed += s.connections_failed;
    res.nic_crashes += s.nic_crashes;
    res.nic_restarts += s.nic_restarts;
  }
  cluster.network().for_each_link(
      [&res](net::Link& l) { res.link_packets_dropped += l.packets_dropped(); });
  return res;
}

BarrierSpec with_leaf_blocks(BarrierSpec spec, const host::Cluster& cluster) {
  if (family_of(spec) == Family::kHier && spec.hier_block == 0) {
    if (const fabric::Fabric* f = cluster.fabric()) spec.hier_block = f->hosts_per_leaf;
  }
  return spec;
}

std::pair<std::size_t, double> best_gb_dimension(ExperimentParams params, unsigned workers) {
  SweepPlan plan;  // run() refuses a family without a GB dimension
  plan.add_gb_sweep("gb-dim-sweep", std::move(params));
  SweepOptions opts;
  opts.workers = workers;
  const SweepResult r = plan.run(opts);
  const CaseResult& c = r.cases.front();
  return {c.gb_dimension, c.result.mean_us};
}

}  // namespace nicbar::coll
