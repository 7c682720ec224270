// Cluster assembly: topologies, node wiring, configuration plumbing.
#include "host/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace nicbar::host
