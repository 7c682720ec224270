// fabric:: builders — shape resolution, input validation diagnostics, and
// the closed-form up/down routing contract: deterministic per-destination
// uplink spreading, byte-identical routes across repeated calls and across
// independently built networks, and independence from N (a partial fabric
// routes exactly like the full one for the nodes that exist).
#include "fabric/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace nicbar::fabric {
namespace {

using net::Network;
using net::NodeId;
using sim::Simulator;

/// Expects the builder to throw std::invalid_argument whose message
/// contains every fragment in `needles` (the diagnostic must name the
/// violated limit, not just say "bad input").
template <typename Builder>
void expect_rejects(Builder&& build, const std::vector<std::string>& needles) {
  Simulator sim;
  Network net(sim);
  try {
    build(net);
    FAIL() << "builder accepted invalid input";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "diagnostic \"" << msg << "\" does not name \"" << needle << "\"";
    }
  }
}

TEST(FabricValidationTest, RejectsRadixBelowThree) {
  for (const std::size_t radix : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    expect_rejects([&](Network& n) { build_fat_tree(n, 4, radix); }, {"radix"});
    expect_rejects([&](Network& n) { build_leaf_spine(n, 4, radix); }, {"radix"});
  }
}

TEST(FabricValidationTest, RejectsZeroNodes) {
  expect_rejects([](Network& n) { build_fat_tree(n, 0, 8); }, {"node"});
  expect_rejects([](Network& n) { build_leaf_spine(n, 0, 8); }, {"node"});
}

TEST(FabricValidationTest, RejectsZeroOversubscription) {
  expect_rejects([](Network& n) { build_fat_tree(n, 4, 8, 0); }, {"oversub"});
  expect_rejects([](Network& n) { build_leaf_spine(n, 4, 8, 0); }, {"oversub"});
}

TEST(FabricValidationTest, RejectsNodesBeyondCapacityNamingTheLimit) {
  // radix 4, oversub 1: u = 2, h = 2. Fat-tree 3-level capacity = k*h^2 = 16;
  // leaf-spine capacity = k*h = 8. The diagnostic must name the number.
  expect_rejects([](Network& n) { build_fat_tree(n, 17, 4); }, {"caps at 16"});
  expect_rejects([](Network& n) { build_leaf_spine(n, 9, 4); }, {"caps at 8"});
}

TEST(FabricValidationTest, RejectsRadixWiderThanARouteByte) {
  // A route byte names ports 0..255; port 256 would alias port 0.
  expect_rejects([](Network& n) { build_fat_tree(n, 600, 257); }, {"257", "256-port limit"});
  expect_rejects([](Network& n) { build_leaf_spine(n, 4, 257); }, {"257", "256-port limit"});
}

TEST(FabricShapeTest, TwoLevelFatTreeWhileNodesFit) {
  Simulator sim;
  Network net(sim);
  // radix 8, oversub 1: u = 4, h = 4, 2-level capacity 32.
  const Fabric f = build_fat_tree(net, 32, 8);
  EXPECT_EQ(f.kind, Kind::kFatTree);
  EXPECT_EQ(f.levels, 2);
  EXPECT_EQ(f.hosts_per_leaf, 4u);
  EXPECT_EQ(f.uplinks_per_leaf, 4u);
  EXPECT_EQ(f.num_leaves, 8u);
  EXPECT_EQ(f.num_pods, 0u);
  EXPECT_EQ(net.terminal_count(), 32u);
}

TEST(FabricShapeTest, ThreeLevelFatTreeBeyondTwoLevelCapacity) {
  Simulator sim;
  Network net(sim);
  // radix 8, oversub 1: 2-level caps at 32, so 33+ nodes go 3-level
  // (capacity k*h^2 = 128).
  const Fabric f = build_fat_tree(net, 100, 8);
  EXPECT_EQ(f.levels, 3);
  EXPECT_EQ(f.hosts_per_leaf, 4u);
  EXPECT_EQ(f.leaves_per_pod, 4u);
  EXPECT_GT(f.num_pods, 0u);
  EXPECT_EQ(f.capacity, 128u);
  EXPECT_EQ(net.terminal_count(), 100u);
}

TEST(FabricShapeTest, LeafSpineIsAlwaysTwoLevels) {
  Simulator sim;
  Network net(sim);
  const Fabric f = build_leaf_spine(net, 24, 8);
  EXPECT_EQ(f.kind, Kind::kLeafSpine);
  EXPECT_EQ(f.levels, 2);
  EXPECT_EQ(f.capacity, 32u);
  // u spine switches + ceil(24/4) = 6 leaves.
  EXPECT_EQ(f.num_leaves, 6u);
}

TEST(FabricShapeTest, OversubscriptionShrinksUplinks) {
  Simulator sim;
  Network net(sim);
  // radix 18, oversub 8: u = max(1, 18/9) = 2, h = 16 — the bench fabric.
  const Fabric f = build_fat_tree(net, 64, 18, 8);
  EXPECT_EQ(f.uplinks_per_leaf, 2u);
  EXPECT_EQ(f.hosts_per_leaf, 16u);
}

TEST(FabricShapeTest, PartialLastLeafPopulation) {
  Simulator sim;
  Network net(sim);
  // radix 8, oversub 3: u = 2, h = 6. 100 nodes -> 17 leaves, last holds 4.
  const Fabric f = build_fat_tree(net, 100, 8, 3);
  EXPECT_EQ(f.hosts_per_leaf, 6u);
  EXPECT_EQ(f.num_leaves, 17u);
  EXPECT_EQ(f.leaf_population(0), 6u);
  EXPECT_EQ(f.leaf_population(16), 4u);
  EXPECT_EQ(f.leaf_of(99), 16u);
  EXPECT_EQ(f.leaf_first(16), NodeId{96});
}

/// The switch at the far end of switch `id`'s output `port` (from the
/// "sw<a>->sw<b>" link name).
int far_switch(Network& net, int id, std::size_t port) {
  const std::string& name = net.switch_at(id).out_link(port)->name();
  const std::string prefix = "sw" + std::to_string(id) + "->sw";
  EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
  return std::stoi(name.substr(prefix.size()));
}

// host::Cluster's PDES lane map derives each switch's role from its id, so
// the builders' id order is a contract: leaves, then agg[p·u + j], then
// core[j·u + m] (three levels) or spine j (two levels).
TEST(FabricShapeTest, SwitchIdsRunLeavesThenAggregationThenCores) {
  Simulator sim;
  Network net(sim);
  // radix 6 at 2:1: u = 2, h = 4; 64 nodes -> 16 leaves, 4 pods.
  const Fabric f = build_fat_tree(net, 64, 6, 2);
  ASSERT_EQ(f.levels, 3);
  const std::size_t h = f.hosts_per_leaf;
  const std::size_t u = f.uplinks_per_leaf;
  const std::size_t aggs = f.num_pods * u;
  ASSERT_EQ(net.switch_count(), f.num_leaves + aggs + u * u);
  for (std::size_t leaf = 0; leaf < f.num_leaves; ++leaf) {
    const std::size_t pod = leaf / f.leaves_per_pod;
    for (std::size_t j = 0; j < u; ++j) {
      EXPECT_EQ(far_switch(net, static_cast<int>(leaf), h + j),
                static_cast<int>(f.num_leaves + pod * u + j))
          << "leaf " << leaf << " uplink " << j;
    }
  }
  for (std::size_t a = 0; a < aggs; ++a) {
    const std::size_t j = a % u;
    for (std::size_t m = 0; m < u; ++m) {
      EXPECT_EQ(far_switch(net, static_cast<int>(f.num_leaves + a), h + m),
                static_cast<int>(f.num_leaves + aggs + j * u + m))
          << "agg " << a << " uplink " << m;
    }
  }
}

TEST(FabricShapeTest, SwitchIdsRunLeavesThenSpines) {
  Simulator sim;
  Network net(sim);
  const Fabric f = build_leaf_spine(net, 24, 8);
  ASSERT_EQ(net.switch_count(), f.num_leaves + f.uplinks_per_leaf);
  for (std::size_t leaf = 0; leaf < f.num_leaves; ++leaf) {
    for (std::size_t j = 0; j < f.uplinks_per_leaf; ++j) {
      EXPECT_EQ(far_switch(net, static_cast<int>(leaf), f.hosts_per_leaf + j),
                static_cast<int>(f.num_leaves + j))
          << "leaf " << leaf << " uplink " << j;
    }
  }
}

TEST(FabricRouteTest, EmptyForSelfAndStableAcrossRepeatedCalls) {
  Simulator sim;
  Network net(sim);
  const Fabric f = build_fat_tree(net, 100, 8);
  EXPECT_TRUE(f.route(7, 7).empty());
  for (NodeId src = 0; src < 100; src += 13) {
    for (NodeId dst = 0; dst < 100; dst += 7) {
      EXPECT_EQ(f.route(src, dst), f.route(src, dst)) << src << "->" << dst;
    }
  }
}

TEST(FabricRouteTest, IdenticalAcrossIndependentBuilds) {
  // Two fabrics built in separate simulators must agree on every route —
  // the determinism the sweep relies on for worker-count independence.
  Simulator sim_a, sim_b;
  Network net_a(sim_a), net_b(sim_b);
  const Fabric a = build_fat_tree(net_a, 100, 8);
  const Fabric b = build_fat_tree(net_b, 100, 8);
  for (NodeId src = 0; src < 100; ++src) {
    for (NodeId dst = 0; dst < 100; dst += 3) {
      EXPECT_EQ(a.route(src, dst), b.route(src, dst)) << src << "->" << dst;
    }
  }
}

TEST(FabricRouteTest, RoutesDoNotDependOnNodeCount) {
  // A 100-node partial build and the full 128-node build route the common
  // terminals identically: uplink spreading is a function of (src, dst)
  // alone, never of how much of the fabric is populated.
  Simulator sim_a, sim_b;
  Network net_a(sim_a), net_b(sim_b);
  const Fabric partial = build_fat_tree(net_a, 100, 8);
  const Fabric full = build_fat_tree(net_b, 128, 8);
  for (NodeId src = 0; src < 100; src += 9) {
    for (NodeId dst = 0; dst < 100; ++dst) {
      EXPECT_EQ(partial.route(src, dst), full.route(src, dst)) << src << "->" << dst;
    }
  }
}

TEST(FabricRouteTest, PerDestinationUplinkSpreading) {
  Simulator sim;
  Network net(sim);
  // radix 8, oversub 1: h = 4, u = 4. All cross-leaf traffic to dst leaves
  // the source leaf on uplink port h + (dst mod u) — different destination
  // residues use different uplinks, and every source agrees per destination.
  const Fabric f = build_fat_tree(net, 32, 8);
  for (NodeId dst = 4; dst < 8; ++dst) {  // leaf 1, residues 0..3
    const std::uint8_t first_hop = f.route(0, dst).front();
    EXPECT_EQ(first_hop, static_cast<std::uint8_t>(f.hosts_per_leaf + dst % f.uplinks_per_leaf));
    // Any other source on another leaf picks the same uplink index.
    EXPECT_EQ(f.route(9, dst).front(), first_hop) << "dst " << dst;
  }
  // The four destinations on leaf 1 cover all four uplinks.
  std::vector<std::uint8_t> seen;
  for (NodeId dst = 4; dst < 8; ++dst) seen.push_back(f.route(0, dst).front());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(FabricRouteTest, HopCountsGrowWithDistance) {
  Simulator sim;
  Network net(sim);
  // 3-level fat-tree: same-leaf < same-pod < cross-pod route lengths.
  const Fabric f = build_fat_tree(net, 100, 8);
  ASSERT_EQ(f.levels, 3);
  const std::size_t same_leaf = f.route(0, 1).size();
  const std::size_t same_pod = f.route(0, f.hosts_per_leaf).size();
  const std::size_t cross_pod =
      f.route(0, static_cast<NodeId>(f.leaves_per_pod * f.hosts_per_leaf)).size();
  EXPECT_LT(same_leaf, same_pod);
  EXPECT_LT(same_pod, cross_pod);
}

TEST(FabricRouteTest, PathTimeIsALonePacketsDeliveryTime) {
  // Every link carries the whole route, so path_time must match what the
  // links charge on 1-, 3- and 5-hop routes, two and three levels up.
  struct Case {
    std::size_t nodes, radix;
    NodeId src, dst;
    std::size_t hops;
  } cases[] = {{32, 8, 0, 1, 1}, {32, 8, 0, 31, 3}, {100, 8, 0, 1, 1},
               {100, 8, 0, 5, 3}, {100, 8, 0, 99, 5}};
  for (const Case& c : cases) {
    Simulator sim;
    Network net(sim);
    build_fat_tree(net, c.nodes, c.radix);
    ASSERT_EQ(net.hop_count(c.src, c.dst), c.hops);
    sim::SimTime arrived{};
    net.set_deliver(c.dst, [&](net::Packet) { arrived = sim.now(); });
    net::Packet p;
    p.src_node = c.src;
    p.dst_node = c.dst;
    p.payload_bytes = 8;
    net.inject(std::move(p));
    sim.run();
    EXPECT_EQ(arrived.ps(), net.path_time(c.src, c.dst, 8).ps())
        << c.nodes << " nodes, " << c.src << "->" << c.dst;
  }
}

TEST(FabricRouteTest, AllPairsDeliverableOnThreeLevelFatTree) {
  Simulator sim;
  Network net(sim);
  // radix 4, oversub 1: h = u = 2, 2-level caps at 8 so 16 nodes go
  // 3-level. Inject every ordered pair and expect exactly one delivery.
  build_fat_tree(net, 16, 4);
  const auto n = static_cast<NodeId>(net.terminal_count());
  std::vector<std::vector<int>> got(n, std::vector<int>(n, 0));
  for (NodeId t = 0; t < n; ++t) {
    net.set_deliver(t, [&, t](net::Packet p) { ++got[p.src_node][t]; });
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      net::Packet p;
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

TEST(FabricRouteTest, AllPairsDeliverableOnLeafSpine) {
  Simulator sim;
  Network net(sim);
  const Fabric f = build_leaf_spine(net, 12, 6, 2);
  EXPECT_EQ(f.hosts_per_leaf, 4u);
  const auto n = static_cast<NodeId>(net.terminal_count());
  std::vector<std::vector<int>> got(n, std::vector<int>(n, 0));
  for (NodeId t = 0; t < n; ++t) {
    net.set_deliver(t, [&, t](net::Packet p) { ++got[p.src_node][t]; });
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      net::Packet p;
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

}  // namespace
}  // namespace nicbar::fabric
