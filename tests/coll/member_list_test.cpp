// coll::MemberList — the one ordered member list every member object of a
// group shares: first-occurrence rank lookup and node membership (both must
// answer exactly what the linear scans they replace answered), the
// per-thread reuse rule of MemberList::of, and sharing through
// BarrierMember, GroupMember, ReduceMember and mpi::Communicator.
#include "coll/schedule.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/group.hpp"
#include "coll/reduce.hpp"
#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "mpi/communicator.hpp"

namespace nicbar::coll {
namespace {

using namespace sim::literals;

std::vector<Endpoint> make_group(std::size_t n, nic::PortId port = 2) {
  std::vector<Endpoint> g;
  for (std::size_t i = 0; i < n; ++i) g.push_back(Endpoint{static_cast<net::NodeId>(i), port});
  return g;
}

/// The scan every member class used to run: first index whose endpoint
/// equals `e`.
std::optional<std::size_t> linear_rank(const std::vector<Endpoint>& g, Endpoint e) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] == e) return i;
  }
  return std::nullopt;
}

bool linear_contains(const std::vector<Endpoint>& g, net::NodeId node) {
  for (const Endpoint& ep : g) {
    if (ep.node == node) return true;
  }
  return false;
}

// --- The list on its own -------------------------------------------------------

TEST(MemberListTest, RankOfAndContainsMatchTheLinearScans) {
  // Unsorted, with repeated nodes (several ports per node) and a duplicated
  // endpoint: the lookup must return the first occurrence, as the scan did.
  const std::vector<Endpoint> g = {{7, 2}, {3, 1}, {7, 1}, {3, 1}, {0, 4},
                                   {9, 0}, {7, 2}, {2, 2}, {0, 0}};
  const MemberList list(g);
  ASSERT_EQ(list.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(list[i], g[i]);
  for (net::NodeId node = 0; node < 12; ++node) {
    EXPECT_EQ(list.contains(node), linear_contains(g, node)) << "node " << node;
    for (nic::PortId port = 0; port < 6; ++port) {
      const Endpoint e{node, port};
      EXPECT_EQ(list.rank_of(e), linear_rank(g, e)) << "node " << node << " port " << +port;
    }
  }
  EXPECT_EQ(list.rank_of(Endpoint{7, 2}), std::optional<std::size_t>{0});
  EXPECT_EQ(list.rank_of(Endpoint{3, 1}), std::optional<std::size_t>{1});
}

TEST(MemberListTest, ExtremeNodeAndPortValues) {
  const std::vector<Endpoint> g = {{65535, 255}, {0, 0}, {65535, 0}, {1, 255}};
  const MemberList list(g);
  EXPECT_EQ(list.rank_of(Endpoint{65535, 255}), std::optional<std::size_t>{0});
  EXPECT_EQ(list.rank_of(Endpoint{65535, 0}), std::optional<std::size_t>{2});
  EXPECT_FALSE(list.rank_of(Endpoint{65534, 255}).has_value());
  EXPECT_TRUE(list.contains(65535));
  EXPECT_TRUE(list.contains(1));
  EXPECT_FALSE(list.contains(2));
}

TEST(MemberListTest, EmptyListHoldsNothing) {
  const std::shared_ptr<const MemberList> list = MemberList::of({});
  EXPECT_EQ(list->size(), 0u);
  EXPECT_FALSE(list->rank_of(Endpoint{0, 0}).has_value());
  EXPECT_FALSE(list->contains(0));
}

TEST(MemberListTest, OfReusesTheLastListOnlyForEqualMembers) {
  const std::vector<Endpoint> g = make_group(16);
  const std::shared_ptr<const MemberList> a = MemberList::of(g);
  const std::vector<Endpoint> copy = g;  // same bytes, other storage
  EXPECT_EQ(MemberList::of(g), a);
  EXPECT_EQ(MemberList::of(copy), a);

  std::vector<Endpoint> changed = g;
  changed[9].port = 3;
  const std::shared_ptr<const MemberList> b = MemberList::of(changed);
  EXPECT_NE(b, a);
  EXPECT_EQ(b->rank_of(Endpoint{9, 3}), std::optional<std::size_t>{9});

  const std::vector<Endpoint> longer = make_group(17);
  const std::shared_ptr<const MemberList> c = MemberList::of(longer);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(c->size(), 17u);

  // Only the last list is remembered: `a` is still alive, but asking for it
  // again after other lists were built makes a fresh (equal) one.
  const std::shared_ptr<const MemberList> again = MemberList::of(g);
  EXPECT_NE(again, a);
  EXPECT_EQ(again->size(), a->size());
}

TEST(MemberListTest, CacheDoesNotKeepAListAlive) {
  std::weak_ptr<const MemberList> seen;
  {
    const std::shared_ptr<const MemberList> list = MemberList::of(make_group(32));
    seen = list;
  }
  EXPECT_TRUE(seen.expired());
  // The next request builds a new list rather than resurrecting the old one.
  const std::shared_ptr<const MemberList> fresh = MemberList::of(make_group(32));
  EXPECT_EQ(fresh->size(), 32u);
  EXPECT_TRUE(seen.expired());
}

// --- Sharing through the member classes ------------------------------------------

struct Fixture {
  /// A `cluster_nodes`-node switch with a port open on each of the first
  /// `members` nodes; `group` lists those members.
  Fixture(std::size_t members, std::size_t cluster_nodes) {
    host::ClusterParams cp;
    cp.nodes = cluster_nodes;
    cluster = std::make_unique<host::Cluster>(cp);
    group = make_group(members);
    for (std::size_t i = 0; i < members; ++i) {
      ports.push_back(cluster->open_port(static_cast<net::NodeId>(i), 2));
    }
  }
  std::unique_ptr<host::Cluster> cluster;
  std::vector<Endpoint> group;
  std::vector<std::unique_ptr<gm::Port>> ports;
};

GroupConfig group_config(std::uint64_t id) {
  GroupConfig c;
  c.id = id;
  c.ctrl_deadline = 5_ms;
  return c;
}

TEST(SharedMemberListTest, MembersBuiltFromOneVectorShareOneList) {
  Fixture f(8, 8);
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  std::vector<std::unique_ptr<BarrierMember>> bms;
  for (auto& p : f.ports) bms.push_back(std::make_unique<BarrierMember>(*p, f.group, pe));
  for (std::size_t i = 0; i < bms.size(); ++i) {
    EXPECT_EQ(bms[i]->member_list(), bms[0]->member_list()) << "member " << i;
    EXPECT_EQ(bms[i]->my_index(), i);
  }
  EXPECT_EQ(bms[0]->member_list().use_count(), 8);

  std::vector<std::unique_ptr<ReduceMember>> rms;
  for (auto& p : f.ports) {
    rms.push_back(std::make_unique<ReduceMember>(*p, f.group, Location::kNic,
                                                 nic::ReduceOp::kSum));
  }
  for (const auto& r : rms) EXPECT_EQ(r->member_list(), bms[0]->member_list());
}

TEST(SharedMemberListTest, GroupAndCommunicatorHandTheirListToTheirCollectives) {
  Fixture f(4, 4);
  std::vector<std::unique_ptr<GroupMember>> gms;
  for (auto& p : f.ports) {
    gms.push_back(std::make_unique<GroupMember>(*p, f.group, group_config(5)));
  }
  for (const auto& g : gms) EXPECT_EQ(g->member_list(), gms[0]->member_list());
  // Each GroupMember owns a NIC and a host BarrierMember; both hold the
  // group's list rather than a copy: 4 group handles + 8 barrier members.
  EXPECT_EQ(gms[0]->member_list().use_count(), 12);
  gms.clear();

  std::vector<std::unique_ptr<mpi::Communicator>> comms;
  for (auto& p : f.ports) comms.push_back(std::make_unique<mpi::Communicator>(*p, f.group));
  for (const auto& c : comms) EXPECT_EQ(c->member_list(), comms[0]->member_list());
  // 4 communicators + their barrier and reduce members.
  EXPECT_EQ(comms[0]->member_list().use_count(), 12);
}

TEST(SharedMemberListTest, ADifferentVectorGetsItsOwnList) {
  Fixture f(8, 8);
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  std::vector<Endpoint> reordered = f.group;
  std::swap(reordered[6], reordered[7]);
  const std::vector<Endpoint> shorter(f.group.begin(), f.group.begin() + 4);
  BarrierMember a(*f.ports[0], f.group, pe);
  BarrierMember b(*f.ports[1], reordered, pe);
  BarrierMember c(*f.ports[2], shorter, pe);
  BarrierMember d(*f.ports[3], f.group, pe);
  EXPECT_NE(a.member_list(), b.member_list());
  EXPECT_NE(b.member_list(), c.member_list());
  EXPECT_NE(a.member_list(), c.member_list());
  EXPECT_EQ(c.member_list()->size(), 4u);
  EXPECT_EQ((*b.member_list())[6], f.group[7]);
  // `d` follows `c`, so it gets a fresh list equal to `a`'s.
  EXPECT_NE(d.member_list(), c.member_list());
  EXPECT_EQ(d.member_list()->size(), 8u);
}

TEST(SharedMemberListTest, ListIsFreedWithItsLastMember) {
  Fixture f(8, 8);
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  std::weak_ptr<const MemberList> seen;
  {
    std::vector<std::unique_ptr<BarrierMember>> bms;
    for (auto& p : f.ports) bms.push_back(std::make_unique<BarrierMember>(*p, f.group, pe));
    seen = bms[0]->member_list();
    bms.erase(bms.begin(), bms.begin() + 7);
    EXPECT_FALSE(seen.expired());
  }
  EXPECT_TRUE(seen.expired());
}

TEST(SharedMemberListTest, DuplicatedEndpointResolvesToItsFirstOccurrence) {
  Fixture f(4, 4);
  const std::vector<Endpoint> dup = {f.group[1], f.group[0], f.group[1], f.group[2]};
  BarrierMember bm(*f.ports[1], dup,
                   spec(Location::kNic, nic::BarrierAlgorithm::kGatherBroadcast));
  EXPECT_EQ(bm.my_index(), 0u);
  ReduceMember rm(*f.ports[1], dup, Location::kNic, nic::ReduceOp::kSum);
  EXPECT_EQ(rm.my_index(), 0u);
  mpi::Communicator comm(*f.ports[1], dup);
  EXPECT_EQ(comm.rank(), 0);
  GroupMember gm(*f.ports[1], dup, group_config(3));
  EXPECT_TRUE(gm.is_coordinator());
}

void expect_rejected(const std::function<void()>& make, const std::string& message) {
  try {
    make();
    FAIL() << "accepted a port outside the list (" << message << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(SharedMemberListTest, PortOutsideTheListThrowsEachClassMessage) {
  Fixture f(4, 6);
  std::unique_ptr<gm::Port> outsider = f.cluster->open_port(5, 2);
  const std::vector<Endpoint> g = f.group;
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  expect_rejected([&] { BarrierMember m(*outsider, g, pe); },
                  "port's endpoint is not in the barrier group");
  expect_rejected([&] { GroupMember m(*outsider, g, group_config(9)); },
                  "port's endpoint is not in the group");
  expect_rejected([&] { ReduceMember m(*outsider, g, Location::kNic, nic::ReduceOp::kSum); },
                  "port's endpoint is not in the reduce group");
  expect_rejected([&] { mpi::Communicator c(*outsider, g); },
                  "port's endpoint is not in the communicator");
  // Same node, other port: membership is per endpoint, not per node.
  std::unique_ptr<gm::Port> other_port = f.cluster->open_port(0, 3);
  expect_rejected([&] { BarrierMember m(*other_port, g, pe); },
                  "port's endpoint is not in the barrier group");
}

// --- Membership through note_peer_dead --------------------------------------------

TEST(SharedMemberListTest, BarrierMemberFailsOnAnyGroupMembersDeathButNotAnOutsiders) {
  // 8-member PE: member 0 exchanges with 1, 2 and 4 only. Node 7 is in the
  // group but not a schedule peer; node 10 is outside the group.
  Fixture f(8, 12);
  BarrierMember m(*f.ports[0], f.group,
                  spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange));
  for (const Endpoint& p : m.pe_peers()) ASSERT_NE(p.node, 7);
  m.note_peer_dead(10);
  EXPECT_FALSE(m.peer_failed());
  m.note_peer_dead(7);
  EXPECT_TRUE(m.peer_failed());
}

TEST(SharedMemberListTest, GroupMemberFailsOnAnyGroupMembersDeathButNotAnOutsiders) {
  // An outsider's death leaves the group working end to end.
  {
    Fixture f(4, 6);
    std::vector<std::unique_ptr<GroupMember>> gms;
    for (auto& p : f.ports) {
      gms.push_back(std::make_unique<GroupMember>(*p, f.group, group_config(11)));
    }
    for (auto& g : gms) g->note_peer_dead(5);
    std::vector<BarrierStatus> st(4, BarrierStatus::kDeadline);
    for (std::size_t i = 0; i < 4; ++i) {
      f.cluster->sim().spawn([](GroupMember& g, BarrierStatus* out) -> sim::Task {
        BarrierStatus s = co_await g.run_create();
        if (is_success(s)) s = co_await g.run_barrier();
        *out = s;
      }(*gms[i], &st[i]));
    }
    f.cluster->sim().run();
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(st[i], BarrierStatus::kOk) << "member " << i;
  }
  // Node 3 is a member but not one of member 0's PE peers (1 and 2): its
  // death still fails member 0's next handshake.
  {
    Fixture f(4, 6);
    GroupMember g(*f.ports[0], f.group, group_config(12));
    g.note_peer_dead(3);
    BarrierStatus st = BarrierStatus::kOk;
    f.cluster->sim().spawn([](GroupMember& m, BarrierStatus* out) -> sim::Task {
      *out = co_await m.run_create();
    }(g, &st));
    f.cluster->sim().run();
    EXPECT_EQ(st, BarrierStatus::kPeerDead);
    EXPECT_EQ(g.state(), GroupState::kFailed);
  }
}

}  // namespace
}  // namespace nicbar::coll
