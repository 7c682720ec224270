#include "host/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace nicbar::host {

Cluster::Cluster(ClusterParams params) : params_(std::move(params)) {
  // The network is always built on the serial simulator; setup_partitions()
  // rebinds every element onto its lane afterwards, so the build simulator
  // is never ticked in a partitioned cluster.
  net_ = std::make_unique<net::Network>(sim_, params_.link, params_.sw);
  switch (params_.topology) {
    case Topology::kSingleSwitch:
      net::build_single_switch(*net_, params_.nodes);
      break;
    case Topology::kFatTree:
      fabric_ = fabric::build_fat_tree(*net_, params_.nodes, params_.fabric_radix,
                                       params_.fabric_oversub);
      break;
    case Topology::kLeafSpine:
      fabric_ = fabric::build_leaf_spine(*net_, params_.nodes, params_.fabric_radix,
                                         params_.fabric_oversub);
      break;
  }
  setup_partitions();
  nodes_.reserve(params_.nodes);
  for (std::size_t i = 0; i < params_.nodes; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    sim::Simulator& lane = sim_for(id);
    auto n = std::make_unique<Node>(lane, params_.host_cpus, id);
    n->nic = std::make_unique<nic::Nic>(lane, *net_, id, params_.nic, n->pci);
    nic::Nic* nic_ptr = n->nic.get();
    net_->set_deliver(id, [nic_ptr](net::PacketPtr p) { nic_ptr->rx_packet(std::move(p)); });
    nodes_.push_back(std::move(n));
  }
  if (params_.telemetry != nullptr) {
    for (auto& n : nodes_) n->nic->set_telemetry(params_.telemetry);
    net_->set_causal(params_.telemetry->causal());
    if (pdes_ != nullptr && params_.telemetry->causal() != nullptr) {
      // One span arena per lane; the worker binds its lane's shard before
      // every window, and run_all() canonicalizes the shards back into the
      // exact ids a serial recording would have produced.
      sim::causal::CausalTracer* tracer = params_.telemetry->causal();
      tracer->enable_sharding(pdes_->partitions());
      pdes_->set_lane_prologue(
          [](std::size_t lane) { sim::causal::CausalTracer::set_current_shard(lane); });
    }
  }
  arm_faults();
}

void Cluster::setup_partitions() {
  std::size_t want = std::max<std::size_t>(1, params_.pdes_partitions);
  // A partition with no nodes would be a lane that only ever idles; clamp to
  // the natural grain: one leaf block (fabrics) or one node (single switch).
  want = std::min(want, fabric_ ? fabric_->num_leaves : params_.nodes);
  if (want <= 1) return;

  node_partition_.assign(params_.nodes, 0);
  switch_partition_.assign(net_->switch_count(), 0);
  if (fabric_) {
    // Leaf-aligned blocks: a node shares a lane with its leaf switch, so the
    // dense host↔leaf traffic is lane-local and only switch↔switch links
    // cross partitions. The builders add switches in a fixed id order
    // (pinned by fabric_topology_test): leaves 0..L-1, then, three levels
    // up, the aggregation switches agg[p·u + j], then the cores (or, two
    // levels up, the spines). An aggregation switch joins the lane of its
    // pod's first leaf, so leaf↔agg traffic stays lane-local; the cores or
    // spines, which every pod reaches alike, are dealt round-robin so no
    // lane carries the whole upper tier.
    const std::size_t leaves = fabric_->num_leaves;
    const auto leaf_lane = [&](std::size_t leaf) { return static_cast<int>(leaf * want / leaves); };
    for (std::size_t i = 0; i < params_.nodes; ++i) {
      node_partition_[i] = leaf_lane(fabric_->leaf_of(static_cast<net::NodeId>(i)));
    }
    std::size_t s = 0;
    for (; s < leaves; ++s) switch_partition_[s] = leaf_lane(s);
    const std::size_t aggs = fabric_->num_pods * fabric_->uplinks_per_leaf;
    for (std::size_t a = 0; a < aggs; ++a, ++s) {
      switch_partition_[s] = leaf_lane(a / fabric_->uplinks_per_leaf * fabric_->leaves_per_pod);
    }
    for (std::size_t top = 0; s < switch_partition_.size(); ++top, ++s) {
      switch_partition_[s] = static_cast<int>(top % want);
    }
  } else {
    // Single switch: contiguous node blocks; the switch stays on lane 0, so
    // every terminal link outside block 0 is a partition crossing and the
    // lookahead is the terminal link's propagation delay.
    for (std::size_t i = 0; i < params_.nodes; ++i) {
      node_partition_[i] = static_cast<int>(i * want / params_.nodes);
    }
  }

  pdes_ = std::make_unique<sim::pdes::PartitionedSimulator>(want, params_.link.propagation,
                                                            params_.pdes_workers);
  net::PartitionMap map;
  map.terminal_partition = node_partition_;
  map.switch_partition = switch_partition_;
  const sim::Duration cross = net_->apply_partitioning(*pdes_, map);
  // All links share params_.link, so the minimum cross-partition propagation
  // either matches the lookahead the lanes were built with or no link
  // crosses at all (single populated partition — still safe, windows just
  // never exchange messages).
  if (cross.ps() != 0 && cross != params_.link.propagation) {
    throw std::logic_error("pdes: cross-partition propagation disagrees with lookahead");
  }
}

std::uint64_t Cluster::run_all(sim::SimTime until) {
  if (pdes_ == nullptr) return sim_.run(until);
  const std::uint64_t n = pdes_->run(until);
  if (params_.telemetry != nullptr && params_.telemetry->causal() != nullptr) {
    sim::causal::CausalTracer* tracer = params_.telemetry->causal();
    tracer->canonicalize();
    // Re-shard so a follow-up run keeps recording race-free; the canonical
    // spans live on in shard 0 and the next canonicalize folds them back in.
    tracer->enable_sharding(pdes_->partitions());
  }
  return n;
}

void Cluster::arm_faults() {
  const sim::fault::FaultPlan& plan = params_.faults;
  if (plan.empty()) return;

  const auto matches = [](const std::string& pattern, const std::string& name) {
    return pattern.empty() || pattern == "*" || name.find(pattern) != std::string::npos;
  };
  // Stable stream counter: each armed (feature, link) pair consumes one
  // index, in deterministic arming order, so streams never collide.
  std::uint64_t stream = 0;
  const auto derive_seed = [&plan, &stream] {
    ++stream;
    return plan.seed + 0x9e3779b97f4a7c15ULL * stream;
  };

  for (const sim::fault::UniformLoss& f : plan.loss) {
    net_->for_each_link([&](net::Link& l) {
      if (matches(f.link, l.name())) l.set_drop_probability(f.prob, derive_seed());
    });
  }
  for (const sim::fault::BurstLoss& f : plan.bursts) {
    net_->for_each_link([&](net::Link& l) {
      if (matches(f.link, l.name())) {
        l.set_burst_loss(f.p_enter_bad, f.p_exit_bad, f.loss_good, f.loss_bad, derive_seed());
      }
    });
  }
  for (const sim::fault::Corruption& f : plan.corruption) {
    net_->for_each_link([&](net::Link& l) {
      if (matches(f.link, l.name())) l.set_corrupt_probability(f.prob, derive_seed());
    });
  }
  for (const sim::fault::LinkDownWindow& f : plan.link_down) {
    // Data on the link, read at each packet's ready instant: no events.
    net_->for_each_link([&](net::Link& l) {
      if (matches(f.link, l.name())) l.add_down_window(f.from, f.until);
    });
  }
  const auto where = [](int line) {
    return line > 0 ? " (fault-plan line " + std::to_string(line) + ")" : std::string();
  };
  for (const sim::fault::NicCrash& f : plan.nic_crashes) {
    if (f.node >= nodes_.size()) {
      // Silently skipping would turn a typo'd node id into a fault-free run
      // that "passes"; name the offending plan line instead.
      throw std::invalid_argument("fault plan: nic-crash node " + std::to_string(f.node) +
                                  " does not exist (cluster has " +
                                  std::to_string(nodes_.size()) + " nodes)" + where(f.line));
    }
    nic::Nic* nic_ptr = nodes_[f.node]->nic.get();
    sim::Simulator& lane = sim_for(static_cast<net::NodeId>(f.node));
    lane.schedule_at(f.at, [nic_ptr] { nic_ptr->crash(); });
    if (f.restart_at != sim::SimTime::max()) {
      lane.schedule_at(f.restart_at, [nic_ptr] { nic_ptr->restart(); });
    }
  }
  for (const sim::fault::SwitchPortDown& f : plan.switch_ports_down) {
    if (f.switch_id >= net_->switch_count()) {
      throw std::invalid_argument("fault plan: switch-port-down switch " +
                                  std::to_string(f.switch_id) + " does not exist (topology has " +
                                  std::to_string(net_->switch_count()) + " switches)" +
                                  where(f.line));
    }
    net::Switch* sw = &net_->switch_at(static_cast<int>(f.switch_id));
    const std::size_t port = f.port;
    sim::Simulator& lane = sim_for_switch(f.switch_id);
    lane.schedule_at(f.from, [sw, port] { sw->begin_port_outage(port); });
    if (f.until != sim::SimTime::max()) {
      lane.schedule_at(f.until, [sw, port] { sw->end_port_outage(port); });
    }
  }
}

void Cluster::snapshot_metrics() {
  if (params_.telemetry == nullptr) return;
  sim::telemetry::MetricsRegistry& m = params_.telemetry->metrics();

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = *nodes_[i];
    nic::Nic& nic = *n.nic;
    const std::string pfx = "nic" + std::to_string(i) + ".";

    const nic::NicStats& s = nic.stats();
    m.counter(pfx + "data_sent") = s.data_sent;
    m.counter(pfx + "data_received") = s.data_received;
    m.counter(pfx + "acks_sent") = s.acks_sent;
    m.counter(pfx + "nacks_sent") = s.nacks_sent;
    m.counter(pfx + "acks_received") = s.acks_received;
    m.counter(pfx + "nacks_received") = s.nacks_received;
    m.counter(pfx + "retransmissions") = s.retransmissions;
    m.counter(pfx + "duplicates_dropped") = s.duplicates_dropped;
    m.counter(pfx + "out_of_order_dropped") = s.out_of_order_dropped;
    m.counter(pfx + "no_token_drops") = s.no_token_drops;
    m.counter(pfx + "closed_port_drops") = s.closed_port_drops;
    m.counter(pfx + "barrier_packets_sent") = s.barrier_packets_sent;
    m.counter(pfx + "barrier_packets_received") = s.barrier_packets_received;
    m.counter(pfx + "barriers_started") = s.barriers_started;
    m.counter(pfx + "barriers_completed") = s.barriers_completed;
    m.counter(pfx + "reduces_started") = s.reduces_started;
    m.counter(pfx + "reduces_completed") = s.reduces_completed;
    m.counter(pfx + "multicasts_sent") = s.multicasts_sent;
    m.counter(pfx + "unexpected_recorded") = s.unexpected_recorded;
    m.counter(pfx + "bit_collisions") = s.bit_collisions;
    m.counter(pfx + "barrier_nacks_sent") = s.barrier_nacks_sent;
    m.counter(pfx + "barrier_resends") = s.barrier_resends;
    m.counter(pfx + "barrier_loopback_msgs") = s.barrier_loopback_msgs;
    m.counter(pfx + "events_delivered") = s.events_delivered;
    m.counter(pfx + "barrier_pe_rounds") = s.barrier_pe_rounds;
    m.counter(pfx + "barrier_gathers_sent") = s.barrier_gathers_sent;
    m.counter(pfx + "barrier_bcasts_entered") = s.barrier_bcasts_entered;
    m.counter(pfx + "barrier_hier_gathers") = s.barrier_hier_gathers;

    // Fault / recovery counters (PR 2).
    m.counter(pfx + "crc_drops") = s.crc_drops;
    m.counter(pfx + "retransmit_timeouts") = s.retransmit_timeouts;
    m.counter(pfx + "rto_backoffs") = s.rto_backoffs;
    m.counter(pfx + "rtt_samples") = s.rtt_samples;
    m.counter(pfx + "connections_failed") = s.connections_failed;
    m.counter(pfx + "dead_peer_drops") = s.dead_peer_drops;
    m.counter(pfx + "nic_crashes") = s.nic_crashes;
    m.counter(pfx + "nic_restarts") = s.nic_restarts;
    m.counter(pfx + "rx_dropped_crashed") = s.rx_dropped_crashed;
    m.counter(pfx + "tx_dropped_crashed") = s.tx_dropped_crashed;
    m.counter(pfx + "barriers_cancelled") = s.barriers_cancelled;

    // Barrier-group lifecycle: slot admission and stale-packet fencing.
    const nic::SlotStats& sl = nic.slots().stats();
    m.counter(pfx + "slots.allocations") = sl.allocations;
    m.counter(pfx + "slots.rejections") = sl.rejections;
    m.counter(pfx + "slots.frees") = sl.frees;
    m.counter(pfx + "slots.generations") = sl.generations;
    m.counter(pfx + "slots.high_water") = static_cast<std::uint64_t>(sl.high_water);
    m.counter(pfx + "stale_group_fenced") = s.stale_group_fenced;

    // Per-engine occupancy of the shared LANai processor.
    const nic::EngineStats& e = nic.engine_stats();
    for (std::size_t k = 0; k < nic::kMcpEngineCount; ++k) {
      const auto eng = static_cast<nic::McpEngine>(k);
      const std::string epfx = pfx + "engine." + nic::to_string(eng) + ".";
      m.counter(epfx + "jobs") = e.jobs[k];
      m.counter(epfx + "cycles") = static_cast<std::uint64_t>(e.cycles[k]);
    }
    const sim::BusyServer& proc = nic.processor().stats();
    m.counter(pfx + "proc.jobs") = proc.jobs();
    m.counter(pfx + "proc.stalls") = proc.stalls();
    m.counter(pfx + "proc.busy_ps") = static_cast<std::uint64_t>(proc.busy_total().ps());
    m.gauge(pfx + "proc.utilisation") = proc.utilisation();

    // The node's PCI bus (SDMA + RDMA contend here).
    const std::string ppfx = "node" + std::to_string(i) + ".pci.";
    m.counter(ppfx + "jobs") = n.pci.jobs();
    m.counter(ppfx + "stalls") = n.pci.stalls();
    m.counter(ppfx + "busy_ps") = static_cast<std::uint64_t>(n.pci.busy_total().ps());
    m.gauge(ppfx + "utilisation") = n.pci.utilisation();
  }

  // Fabric: every directed link, plus per-switch forwarding totals. A
  // link's `stalls` counts packets that queued behind the wire — output-
  // port contention at the upstream switch.
  net_->for_each_link([&m](net::Link& l) {
    const std::string pfx = "link." + l.name() + ".";
    m.counter(pfx + "packets") = l.packets_sent();
    m.counter(pfx + "dropped") = l.packets_dropped();
    m.counter(pfx + "corrupted") = l.packets_corrupted();
    m.counter(pfx + "down_drops") = l.drops_while_down();
    m.counter(pfx + "down_time_ps") = static_cast<std::uint64_t>(l.down_time_total().ps());
    m.counter(pfx + "bytes") = static_cast<std::uint64_t>(l.bytes_sent());
    m.counter(pfx + "stalls") = l.wire().stalls();
    m.counter(pfx + "queue_delay_ps") =
        static_cast<std::uint64_t>(l.wire().queue_delay_total().ps());
    m.gauge(pfx + "utilisation") = l.wire().utilisation();
  });
  for (std::size_t sw = 0; sw < net_->switch_count(); ++sw) {
    const net::Switch& s = net_->switch_at(static_cast<int>(sw));
    const std::string pfx = "switch" + std::to_string(sw) + ".";
    m.counter(pfx + "forwarded") = s.packets_forwarded();
    m.counter(pfx + "misrouted") = s.packets_misrouted();
    m.counter(pfx + "port_down_drops") = s.packets_dropped_port_down();
  }
  m.counter("net.packets_injected") = net_->packets_injected();

  // The engine's own work: events executed, summed over the PDES lanes (a
  // partitioned run executes the events a serial run would).
  std::uint64_t events = 0;
  if (pdes_ == nullptr) {
    events = sim_.events_executed();
  } else {
    for (std::size_t i = 0; i < pdes_->partitions(); ++i) {
      events += pdes_->lane(i).events_executed();
    }
  }
  m.counter("sim.events_executed") = events;
}

std::unique_ptr<gm::Port> Cluster::make_port(net::NodeId node_id, nic::PortId port) {
  Node& n = *nodes_.at(node_id);
  return std::make_unique<gm::Port>(sim_for(node_id), n.host_cpu, *n.nic, port, params_.gm);
}

std::unique_ptr<gm::Port> Cluster::open_port(net::NodeId node_id, nic::PortId port) {
  auto p = make_port(node_id, port);
  p->open();
  return p;
}

}  // namespace nicbar::host
