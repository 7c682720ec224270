#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/topology.hpp"
#include "net/network.hpp"

namespace nicbar::net {
namespace {

using sim::Simulator;

void expect_all_pairs_reachable(Simulator& sim, Network& net) {
  const auto n = static_cast<NodeId>(net.terminal_count());
  std::vector<std::vector<int>> got(n, std::vector<int>(n, 0));
  for (NodeId t = 0; t < n; ++t) {
    net.set_deliver(t, [&, t](Packet p) { ++got[p.src_node][t]; });
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      Packet p;
      p.src_node = a;
      p.dst_node = b;
      p.payload_bytes = 4;
      net.inject(std::move(p));
    }
  }
  sim.run();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      EXPECT_EQ(got[a][b], 1) << "pair " << a << "->" << b;
    }
  }
}

TEST(TopologyTest, SingleSwitchSizes) {
  for (std::size_t nodes : {2u, 4u, 8u, 16u}) {
    Simulator sim;
    Network net(sim);
    build_single_switch(net, nodes);
    EXPECT_EQ(net.terminal_count(), nodes);
    EXPECT_EQ(net.switch_count(), 1u);
    expect_all_pairs_reachable(sim, net);
  }
}

TEST(TopologyTest, SingleSwitchRoutesEveryPortOfAByteWideSwitch) {
  Simulator sim;
  Network net(sim);
  build_single_switch(net, kMaxSwitchPorts);
  EXPECT_EQ(net.route(0, 255), Route{255});
  int delivered = 0;
  net.set_deliver(255, [&](Packet) { ++delivered; });
  Packet p;
  p.src_node = 0;
  p.dst_node = 255;
  net.inject(std::move(p));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(TopologyTest, SwitchWiderThanARouteByteIsRejected) {
  Simulator sim;
  Network net(sim);
  try {
    build_single_switch(net, kMaxSwitchPorts + 1);
    FAIL() << "a 257-port switch was built";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("257"), std::string::npos) << msg;
    EXPECT_NE(msg.find("256-port limit"), std::string::npos) << msg;
  }
}

// A radix-k switch tree (k-1 hosts and one uplink per switch) is the
// fat-tree with k-1 : 1 oversubscription.

TEST(TopologyTest, SwitchTreeSmall) {
  Simulator sim;
  Network net(sim);
  fabric::build_fat_tree(net, 16, 8, 7);
  EXPECT_EQ(net.switch_count(), 4u);  // three leaves under one root
  expect_all_pairs_reachable(sim, net);
}

TEST(TopologyTest, SwitchTreeLarge) {
  Simulator sim;
  Network net(sim);
  fabric::build_fat_tree(net, 128, 16, 15);
  EXPECT_EQ(net.terminal_count(), 128u);
  // Spot-check reachability on a few pairs (all-pairs is O(n^2) packets).
  int delivered = 0;
  for (NodeId t = 0; t < 128; ++t) net.set_deliver(t, [&](Packet) { ++delivered; });
  const NodeId pairs[][2] = {{0, 127}, {0, 1}, {63, 64}, {127, 0}, {17, 91}};
  for (auto& pr : pairs) {
    Packet p;
    p.src_node = pr[0];
    p.dst_node = pr[1];
    net.inject(std::move(p));
  }
  sim.run();
  EXPECT_EQ(delivered, 5);
}

TEST(TopologyTest, TreeHopCountReflectsDepth) {
  Simulator sim;
  Network net(sim);
  fabric::build_fat_tree(net, 64, 8, 7);  // three levels: 10 leaves, 2 pods
  // Same leaf: 1 hop. Sibling leaves: 3. Leaves under different pods: 5.
  EXPECT_EQ(net.hop_count(0, 1), 1u);
  EXPECT_EQ(net.hop_count(0, 7), 3u);
  EXPECT_EQ(net.hop_count(0, 63), 5u);
}

}  // namespace
}  // namespace nicbar::net
