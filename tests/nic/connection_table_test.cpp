// Unit tests for nic::ConnectionTable, the NIC's index from remote node to
// its per-peer Connection: iteration order, reference stability across
// growth, the extreme node ids, misses and the allocation count.
#include "nic/connection_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace nicbar::nic {
namespace {

using NodeId = ConnectionTable::NodeId;

std::vector<NodeId> visit_order(ConnectionTable& t) {
  std::vector<NodeId> seen;
  t.for_each([&](NodeId remote, Connection&) { seen.push_back(remote); });
  return seen;
}

TEST(ConnectionTable, ForEachVisitsPeersInAscendingIdWhateverTheContactOrder) {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 300; ++i) ids.push_back(static_cast<NodeId>(i * 217 % 65536));
  ids.push_back(0);  // a repeat contact must not add a second visit
  ids.push_back(65535);
  std::mt19937 rng(19);
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    std::shuffle(ids.begin(), ids.end(), rng);
    ConnectionTable t;
    for (const NodeId id : ids) t.get_or_create(id);
    std::vector<NodeId> expected = ids;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    EXPECT_EQ(visit_order(t), expected);
  }
}

TEST(ConnectionTable, ReferencesStayValidWhileTheTableGrows) {
  ConnectionTable t;
  std::vector<Connection*> first;
  for (NodeId id = 0; id < 130; ++id) {
    Connection& c = t.get_or_create(static_cast<NodeId>(id * 31));
    c.next_send_seq = 1000u + id;  // a mark the growth must not disturb
    first.push_back(&c);
  }
  for (NodeId id = 0; id < 130; ++id) {
    const NodeId remote = static_cast<NodeId>(id * 31);
    EXPECT_EQ(t.find(remote), first[id]) << "peer " << remote << " moved";
    EXPECT_EQ(&t.get_or_create(remote), first[id]);
    EXPECT_EQ(first[id]->next_send_seq, 1000u + id);
  }
}

TEST(ConnectionTable, ExtremeNodeIdsAreDistinctPeers) {
  ConnectionTable t;
  Connection& lo = t.get_or_create(0);
  Connection& hi = t.get_or_create(65535);
  EXPECT_NE(&lo, &hi);
  EXPECT_EQ(t.find(0), &lo);
  EXPECT_EQ(t.find(65535), &hi);
  EXPECT_EQ(visit_order(t), (std::vector<NodeId>{0, 65535}));
}

TEST(ConnectionTable, FindReturnsNullForAPeerNeverContacted) {
  ConnectionTable t;
  const ConnectionTable& ct = t;
  EXPECT_EQ(t.find(3), nullptr);  // an empty table
  EXPECT_EQ(ct.find(0), nullptr);
  t.get_or_create(3);
  t.get_or_create(5);
  EXPECT_EQ(t.find(4), nullptr);
  EXPECT_EQ(ct.find(65535), nullptr);
  EXPECT_NE(ct.find(5), nullptr);
  EXPECT_EQ(t.allocated(), 2u);  // misses allocate nothing
}

TEST(ConnectionTable, AllocatedCountsConnectionsCreated) {
  ConnectionTable t;
  EXPECT_EQ(t.allocated(), 0u);
  t.get_or_create(9);
  t.get_or_create(9);
  EXPECT_EQ(t.allocated(), 1u);
  for (NodeId id = 100; id < 200; ++id) t.get_or_create(id);
  EXPECT_EQ(t.allocated(), 101u);
}

}  // namespace
}  // namespace nicbar::nic
