// Cluster assembly: topologies, node wiring, configuration plumbing.
#include "host/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coll/runner.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::host {
namespace {

TEST(ClusterTest, SingleSwitchDefaults) {
  ClusterParams p;
  p.nodes = 8;
  Cluster c(p);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.network().terminal_count(), 8u);
  EXPECT_EQ(c.network().switch_count(), 1u);
}

TEST(ClusterTest, NicConfigIsPropagated) {
  ClusterParams p;
  p.nodes = 2;
  p.nic = nic::lanai72();
  Cluster c(p);
  EXPECT_EQ(c.nic(0).config().model, "LANai-7.2");
  EXPECT_DOUBLE_EQ(c.nic(1).config().clock_mhz, 66.0);
}

TEST(ClusterTest, NodeIdsMatchTerminals) {
  ClusterParams p;
  p.nodes = 4;
  Cluster c(p);
  for (net::NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nic(i).node_id(), i);
  }
}

TEST(ClusterTest, SwitchTreeTopology) {
  // A radix-8 switch tree is the 7:1 fat-tree: ten leaves of seven hosts,
  // two pod switches, one root.
  ClusterParams p;
  p.nodes = 64;
  p.topology = Topology::kFatTree;
  p.fabric_radix = 8;
  p.fabric_oversub = 7;
  Cluster c(p);
  EXPECT_EQ(c.network().terminal_count(), 64u);
  EXPECT_EQ(c.network().switch_count(), 13u);
  EXPECT_EQ(c.network().hop_count(0, 63), 5u);
}

TEST(ClusterTest, PortFactoryBindsToNode) {
  ClusterParams p;
  p.nodes = 3;
  Cluster c(p);
  auto port = c.open_port(2, 4);
  EXPECT_EQ(port->node(), 2);
  EXPECT_EQ(port->id(), 4);
  EXPECT_TRUE(c.nic(2).is_port_open(4));
}

TEST(ClusterTest, MakePortDoesNotOpen) {
  ClusterParams p;
  p.nodes = 2;
  Cluster c(p);
  auto port = c.make_port(0, 2);
  EXPECT_FALSE(port->is_open());
  EXPECT_FALSE(c.nic(0).is_port_open(2));
}

TEST(ClusterTest, GmConfigIsPropagated) {
  ClusterParams p;
  p.nodes = 2;
  p.gm.layer_overhead = sim::microseconds(9.0);
  Cluster c(p);
  auto port = c.open_port(0, 2);
  EXPECT_EQ(port->config().layer_overhead.ps(), sim::microseconds(9.0).ps());
}

TEST(ClusterTest, PciBusIsSharedPerNode) {
  ClusterParams p;
  p.nodes = 2;
  Cluster c(p);
  Node& n = c.node(0);
  // One PCI bus object per node, used by that node's NIC.
  EXPECT_EQ(n.pci.jobs(), 0u);
  n.pci.submit(sim::microseconds(1.0));
  EXPECT_EQ(n.pci.jobs(), 1u);
}

TEST(ClusterTest, HostCpuCountConfigurable) {
  ClusterParams p;
  p.nodes = 1;
  p.host_cpus = 4;
  Cluster c(p);
  EXPECT_EQ(c.node(0).host_cpu.capacity(), 4u);
}

TEST(ClusterTest, PdesLaneMapSpreadsTheUpperTier) {
  // Three-level fat-tree, radix 6 at 2:1: u = 2 uplinks, h = 4 hosts per
  // leaf, 64 nodes -> 16 leaves in 4 pods, 8 aggregation switches, 4 cores.
  ClusterParams p;
  p.nodes = 64;
  p.topology = Topology::kFatTree;
  p.fabric_radix = 6;
  p.fabric_oversub = 2;
  p.pdes_partitions = 4;
  p.pdes_workers = 1;
  Cluster c(p);
  const fabric::Fabric& f = *c.fabric();
  ASSERT_EQ(f.levels, 3);
  ASSERT_EQ(f.num_leaves, 16u);
  ASSERT_EQ(f.num_pods, 4u);
  ASSERT_EQ(f.uplinks_per_leaf, 2u);
  ASSERT_EQ(c.network().switch_count(), 16u + 8u + 4u);
  const std::size_t lanes = c.pdes()->partitions();
  ASSERT_EQ(lanes, 4u);

  std::vector<std::size_t> per_lane(lanes, 0);
  // Nodes share their leaf's lane; leaves are dealt in contiguous blocks.
  for (net::NodeId n = 0; n < 64; ++n) {
    const std::size_t leaf = f.leaf_of(n);
    EXPECT_EQ(c.partition_of(n), c.switch_partition_of(static_cast<int>(leaf))) << "node " << n;
    ++per_lane.at(c.partition_of(n));
  }
  for (std::size_t leaf = 0; leaf < f.num_leaves; ++leaf) {
    EXPECT_EQ(c.switch_partition_of(static_cast<int>(leaf)), leaf * lanes / f.num_leaves);
  }
  // agg[p * u + j] (switch id L + p * u + j) shares its pod's first-leaf lane.
  const std::size_t u = f.uplinks_per_leaf;
  for (std::size_t pod = 0; pod < f.num_pods; ++pod) {
    const std::size_t first_leaf_lane =
        c.switch_partition_of(static_cast<int>(pod * f.leaves_per_pod));
    for (std::size_t j = 0; j < u; ++j) {
      const int agg = static_cast<int>(f.num_leaves + pod * u + j);
      EXPECT_EQ(c.switch_partition_of(agg), first_leaf_lane) << "pod " << pod << " agg " << j;
      ++per_lane.at(c.switch_partition_of(agg));
    }
  }
  // The u * u cores are dealt round-robin: one per lane here.
  std::vector<std::size_t> cores_per_lane(lanes, 0);
  for (std::size_t k = 0; k < u * u; ++k) {
    const int core = static_cast<int>(f.num_leaves + f.num_pods * u + k);
    EXPECT_EQ(c.switch_partition_of(core), k % lanes) << "core " << k;
    ++cores_per_lane.at(c.switch_partition_of(core));
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    EXPECT_EQ(cores_per_lane[lane], 1u) << "lane " << lane;
    EXPECT_GT(per_lane[lane], 0u) << "lane " << lane << " is empty";
  }
}

TEST(ClusterTest, PdesLaneMapDealsSpinesRoundRobin) {
  // Two-level leaf-spine, radix 8 at 1:1: u = 4 spines, 8 leaves of 4.
  ClusterParams p;
  p.nodes = 32;
  p.topology = Topology::kLeafSpine;
  p.fabric_radix = 8;
  p.pdes_partitions = 2;
  p.pdes_workers = 1;
  Cluster c(p);
  const fabric::Fabric& f = *c.fabric();
  ASSERT_EQ(f.num_leaves, 8u);
  ASSERT_EQ(f.uplinks_per_leaf, 4u);
  for (std::size_t j = 0; j < f.uplinks_per_leaf; ++j) {
    EXPECT_EQ(c.switch_partition_of(static_cast<int>(f.num_leaves + j)), j % 2) << "spine " << j;
  }
}

// --- The engine's work in the record ------------------------------------------
//
// snapshot_metrics writes `sim.events_executed`. The pins below count the
// events of fixed runs; they move only when the engine spends a different
// number of events on the same timeline, and every timeline beside them
// stays where it is.

/// `sim.events_executed` of one measurement loop, and the instant its last
/// member finished.
struct EngineWork {
  std::uint64_t events = 0;
  sim::SimTime end{0};
};

EngineWork engine_work(coll::ExperimentParams p) {
  sim::telemetry::Telemetry tel;
  p.cluster.telemetry = &tel;
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EngineWork w;
  w.events = tel.metrics().counters().at("sim.events_executed");
  w.end = *std::max_element(r.member_end_times.begin(), r.member_end_times.end());
  return w;
}

coll::ExperimentParams barrier_loop(std::size_t nodes, int reps) {
  coll::ExperimentParams p;
  p.nodes = nodes;
  p.reps = reps;
  return p;
}

TEST(ClusterTest, EventsPerFirmwareBarrierArePinned) {
  // engine_microbench's BM_PacketPath: a NIC-PE barrier between the two
  // NICs of a 2-node cluster, posted straight to the firmware. Each side
  // sends one packet SEND -> link -> switch -> link -> RECV -> firmware.
  ClusterParams cp;
  cp.nodes = 2;
  Cluster c(cp);
  constexpr nic::PortId kPort = 2;
  for (net::NodeId n = 0; n < 2; ++n) c.nic(n).open_port(kPort, nullptr);
  for (std::uint32_t epoch = 0; epoch < 4; ++epoch) {
    for (net::NodeId n = 0; n < 2; ++n) {
      nic::BarrierToken token;
      token.src_port = kPort;
      token.epoch = epoch;
      token.peers = {nic::Endpoint{static_cast<net::NodeId>(1 - n), kPort}};
      c.nic(n).post_barrier_token(std::move(token));
    }
    const std::uint64_t events = c.sim().events_executed();
    const sim::SimTime begin = c.sim().now();
    c.sim().run();
    EXPECT_EQ(c.sim().events_executed() - events, 14u) << "barrier " << epoch;
    EXPECT_EQ((c.sim().now() - begin).ps(), 32'991'285) << "barrier " << epoch;
  }
}

TEST(ClusterTest, EventsOfANicBarrierLoopArePinned) {
  const EngineWork w = engine_work(barrier_loop(16, 20));
  EXPECT_EQ(w.events, 7'376u);
  EXPECT_EQ(w.end.ps(), 2'020'030'120);
}

TEST(ClusterTest, EventsOfAHostBarrierLoopArePinned) {
  coll::ExperimentParams p = barrier_loop(16, 20);
  p.spec.location = coll::Location::kHost;
  EXPECT_EQ(engine_work(p).events, 19'376u);
}

TEST(ClusterTest, EventsOfAFatTreeLoopArePinnedOnEitherEngine) {
  coll::ExperimentParams p = barrier_loop(64, 10);
  p.cluster.topology = Topology::kFatTree;
  p.cluster.fabric_radix = 8;
  const EngineWork serial = engine_work(p);
  EXPECT_EQ(serial.events, 27'584u);
  p.cluster.pdes_partitions = 4;
  p.cluster.pdes_workers = 2;
  const EngineWork partitioned = engine_work(p);
  EXPECT_EQ(partitioned.events, serial.events);
  EXPECT_EQ(partitioned.end, serial.end);
}

}  // namespace
}  // namespace nicbar::host
