#include "net/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/topology.hpp"

namespace nicbar::net {
namespace {

using namespace nicbar::sim::literals;
using sim::SimTime;
using sim::Simulator;

Packet packet_between(NodeId src, NodeId dst, std::int64_t payload = 8) {
  Packet p;
  p.src_node = src;
  p.dst_node = dst;
  p.payload_bytes = payload;
  return p;
}

TEST(NetworkTest, SingleSwitchDelivery) {
  Simulator sim;
  Network net(sim);
  build_single_switch(net, 4);
  ASSERT_EQ(net.terminal_count(), 4u);
  ASSERT_EQ(net.switch_count(), 1u);

  std::vector<Packet> got;
  net.set_deliver(2, [&](Packet p) { got.push_back(std::move(p)); });
  net.inject(packet_between(0, 2));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src_node, 0);
  EXPECT_EQ(got[0].dst_node, 2);
}

TEST(NetworkTest, RouteOnSingleSwitchIsOneHop) {
  Simulator sim;
  Network net(sim);
  build_single_switch(net, 8);
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_EQ(net.hop_count(a, b), 1u);
      EXPECT_EQ(net.route(a, b)[0], b);  // port b on the switch
    }
  }
}

TEST(NetworkTest, LatencyMatchesModel) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::nanoseconds(100);
  lp.header_bytes = 16;
  SwitchParams sp;
  sp.routing_latency = sim::nanoseconds(300);
  Network net(sim, lp, sp);
  build_single_switch(net, 2);

  SimTime arrived{};
  net.set_deliver(1, [&](Packet) { arrived = sim.now(); });
  net.inject(packet_between(0, 1, 8));
  sim.run();
  // Uplink wire: (16 hdr + 1 route + 8 payload)=25B @160MB/s = 156.25ns,
  // +100ns prop; switch 300ns; downlink wire 156.25ns (route byte still
  // counted in size model) +100ns prop.
  const std::int64_t wire = sim::transfer_time(25, 160.0).ps();
  EXPECT_EQ(arrived.ps(), 2 * wire + 2 * 100'000 + 300'000);
  EXPECT_EQ(arrived.ps(), net.path_time(0, 1, 8).ps());
}

TEST(NetworkTest, RouteLongerThanItsCapacityThrowsInsteadOfTruncating) {
  const Route r{1, 2, 3, 4, 5};
  ASSERT_EQ(r.size(), Route::kMaxHops);
  EXPECT_EQ(r[4], 5);
  EXPECT_THROW((Route{1, 2, 3, 4, 5, 6}), std::length_error);
}

TEST(NetworkTest, AllPairsDeliverOnSingleSwitch16) {
  Simulator sim;
  Network net(sim);
  build_single_switch(net, 16);
  int delivered = 0;
  for (NodeId t = 0; t < 16; ++t) {
    net.set_deliver(t, [&](Packet) { ++delivered; });
  }
  int sent = 0;
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      if (a == b) continue;
      net.inject(packet_between(a, b));
      ++sent;
    }
  }
  sim.run();
  EXPECT_EQ(delivered, sent);
}

TEST(NetworkTest, OutputContentionSerializesFlows) {
  Simulator sim;
  LinkParams lp;
  lp.bandwidth_mbps = 160.0;
  lp.propagation = sim::Duration{0};
  lp.header_bytes = 0;
  SwitchParams sp;
  sp.routing_latency = sim::Duration{0};
  Network net(sim, lp, sp);
  build_single_switch(net, 3);

  std::vector<SimTime> arrivals;
  net.set_deliver(2, [&](Packet) { arrivals.push_back(sim.now()); });
  // Two senders to the same destination; 160B payload = 1us+route byte time each.
  net.inject(packet_between(0, 2, 160));
  net.inject(packet_between(1, 2, 160));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second arrival is serialized behind the first on the switch->t2 link.
  EXPECT_GT(arrivals[1].ps(), arrivals[0].ps());
  EXPECT_NEAR(static_cast<double>(arrivals[1].ps() - arrivals[0].ps()),
              static_cast<double>(sim::transfer_time(161, 160.0).ps()), 1e5);
}

TEST(NetworkTest, PacketIdsAreUnique) {
  Simulator sim;
  Network net(sim);
  build_single_switch(net, 2);
  std::vector<std::uint64_t> ids;
  net.set_deliver(1, [&](Packet p) { ids.push_back(p.id); });
  for (int i = 0; i < 5; ++i) net.inject(packet_between(0, 1));
  sim.run();
  ASSERT_EQ(ids.size(), 5u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_NE(ids[i], ids[i - 1]);
  EXPECT_EQ(net.packets_injected(), 5u);
}

TEST(NetworkTest, MisroutedPacketIsCounted) {
  Simulator sim;
  Network net(sim);
  const int sw = net.add_switch(2);
  const NodeId t0 = net.add_terminal();
  const NodeId t1 = net.add_terminal();
  net.connect_terminal(t0, sw, 0);
  net.connect_terminal(t1, sw, 1);
  net.finalize([](NodeId, NodeId dst) { return Route{static_cast<std::uint8_t>(dst)}; });

  // Inject with a corrupted route (empty) directly through the uplink.
  Packet p = packet_between(t0, t1);
  p.route = {};  // no route bytes: switch must drop it
  net.uplink(t0).transmit(std::move(p));
  sim.run();
  EXPECT_EQ(net.switch_at(sw).packets_misrouted(), 1u);
}

}  // namespace
}  // namespace nicbar::net
