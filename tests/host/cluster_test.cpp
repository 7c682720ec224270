// Cluster assembly: topologies, node wiring, configuration plumbing.
#include "host/cluster.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace nicbar::host
