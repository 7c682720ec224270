// NIC-based and host-based allreduce (§8 extension): value correctness
// across operations, sizes, tree dimensions, and skew; NIC beats host.
#include "coll/reduce.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/cluster.hpp"

namespace nicbar {
namespace {

using namespace sim::literals;
using coll::Location;
using coll::ReduceMember;
using nic::ReduceOp;

std::int64_t reference_reduce(ReduceOp op, const std::vector<std::int64_t>& vals) {
  std::int64_t acc = vals[0];
  for (std::size_t i = 1; i < vals.size(); ++i) acc = nic::apply_reduce_op(op, acc, vals[i]);
  return acc;
}

struct RunResult {
  std::vector<std::int64_t> results;
  double elapsed_us = 0;
};

RunResult run_allreduce(std::size_t n, Location loc, ReduceOp op,
                        const std::vector<std::int64_t>& contributions,
                        std::size_t dimension = 2, bool skew = false, int reps = 1) {
  host::ClusterParams cp;
  cp.nodes = n;
  host::Cluster cluster(cp);
  std::vector<gm::Endpoint> group;
  for (std::size_t i = 0; i < n; ++i) {
    group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), 2});
  }
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<ReduceMember>> members;
  RunResult out;
  out.results.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
    members.push_back(
        std::make_unique<ReduceMember>(*ports.back(), group, loc, op, dimension));
    cluster.sim().spawn([](sim::Simulator& sim, ReduceMember& m, std::int64_t v,
                           std::int64_t* res, sim::Duration d, int r) -> sim::Task {
      if (!d.is_zero()) co_await sim.delay(d);
      for (int k = 0; k < r; ++k) {
        *res = co_await m.allreduce(v + k);  // vary contribution per round
      }
    }(cluster.sim(), *members.back(), contributions[i], &out.results[i],
      skew ? sim::microseconds(43.0 * static_cast<double>(i)) : sim::Duration{0}, reps));
  }
  cluster.sim().run();
  out.elapsed_us = cluster.sim().now().us();
  return out;
}

std::vector<std::int64_t> iota_vals(std::size_t n, std::int64_t base = 1) {
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<std::int64_t>(i);
  return v;
}

class AllreduceOps : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(AllreduceOps, NicValueMatchesReference) {
  const ReduceOp op = GetParam();
  const auto vals = iota_vals(8, 3);
  const RunResult r = run_allreduce(8, Location::kNic, op, vals);
  const std::int64_t expect = reference_reduce(op, vals);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.results[i], expect) << "node " << i;
}

TEST_P(AllreduceOps, HostValueMatchesReference) {
  const ReduceOp op = GetParam();
  const auto vals = iota_vals(8, 3);
  const RunResult r = run_allreduce(8, Location::kHost, op, vals);
  const std::int64_t expect = reference_reduce(op, vals);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.results[i], expect) << "node " << i;
}

INSTANTIATE_TEST_SUITE_P(Ops, AllreduceOps,
                         ::testing::Values(ReduceOp::kSum, ReduceOp::kProd, ReduceOp::kMin,
                                           ReduceOp::kMax, ReduceOp::kBitAnd,
                                           ReduceOp::kBitOr),
                         [](const auto& p) { return nic::to_string(p.param); });

class AllreduceSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllreduceSizes, SumAcrossSizesNic) {
  const std::size_t n = GetParam();
  const auto vals = iota_vals(n);
  const RunResult r = run_allreduce(n, Location::kNic, ReduceOp::kSum, vals);
  const auto sn = static_cast<std::int64_t>(n);
  const std::int64_t expect = sn * (sn + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.results[i], expect);
}

TEST_P(AllreduceSizes, SumAcrossSizesHost) {
  const std::size_t n = GetParam();
  const auto vals = iota_vals(n);
  const RunResult r = run_allreduce(n, Location::kHost, ReduceOp::kSum, vals);
  const auto sn = static_cast<std::int64_t>(n);
  const std::int64_t expect = sn * (sn + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.results[i], expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllreduceSizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                           std::size_t{5}, std::size_t{8}, std::size_t{13},
                                           std::size_t{16}));

TEST(AllreduceTest, EveryTreeDimensionGivesSameValue) {
  const auto vals = iota_vals(12, 10);
  const std::int64_t expect = reference_reduce(ReduceOp::kSum, vals);
  for (std::size_t dim = 1; dim < 12; ++dim) {
    const RunResult r = run_allreduce(12, Location::kNic, ReduceOp::kSum, vals, dim);
    for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(r.results[i], expect) << "dim " << dim;
  }
}

TEST(AllreduceTest, SkewedEntryStillCorrect) {
  const auto vals = iota_vals(8, -4);  // includes negatives and zero
  const RunResult r = run_allreduce(8, Location::kNic, ReduceOp::kMin, vals, 2, true);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.results[i], -4);
}

TEST(AllreduceTest, ConsecutiveRoundsUseFreshContributions) {
  // reps=3 with contribution v+k per round: final result is sum of (v_i + 2).
  const auto vals = iota_vals(4);
  const RunResult r = run_allreduce(4, Location::kNic, ReduceOp::kSum, vals, 2, false, 3);
  const std::int64_t expect = (1 + 2) + (2 + 2) + (3 + 2) + (4 + 2);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.results[i], expect);
}

TEST(AllreduceTest, NicFasterThanHost) {
  const auto vals = iota_vals(16);
  const RunResult host = run_allreduce(16, Location::kHost, ReduceOp::kSum, vals, 4, false, 10);
  const RunResult nic_r = run_allreduce(16, Location::kNic, ReduceOp::kSum, vals, 4, false, 10);
  EXPECT_LT(nic_r.elapsed_us, host.elapsed_us);
}

TEST(AllreduceTest, ReduceCountersTrack) {
  host::ClusterParams cp;
  cp.nodes = 2;
  host::Cluster cluster(cp);
  std::vector<gm::Endpoint> group{{0, 2}, {1, 2}};
  auto p0 = cluster.open_port(0, 2);
  auto p1 = cluster.open_port(1, 2);
  ReduceMember m0(*p0, group, Location::kNic, ReduceOp::kSum);
  ReduceMember m1(*p1, group, Location::kNic, ReduceOp::kSum);
  std::int64_t r0 = 0, r1 = 0;
  cluster.sim().spawn([](ReduceMember& m, std::int64_t* r) -> sim::Task {
    *r = co_await m.allreduce(5);
  }(m0, &r0));
  cluster.sim().spawn([](ReduceMember& m, std::int64_t* r) -> sim::Task {
    *r = co_await m.allreduce(7);
  }(m1, &r1));
  cluster.sim().run();
  EXPECT_EQ(r0, 12);
  EXPECT_EQ(r1, 12);
  EXPECT_EQ(cluster.nic(0).stats().reduces_started, 1u);
  EXPECT_EQ(cluster.nic(0).stats().reduces_completed, 1u);
  EXPECT_EQ(cluster.nic(1).stats().reduces_completed, 1u);
}

TEST(AllreduceTest, ConcurrentReduceOnBarrierPortThrows) {
  // The unexpected-record bit array is shared: a port may run one collective
  // at a time. Starting a reduce while a barrier is active is a host bug.
  host::ClusterParams cp;
  cp.nodes = 2;
  host::Cluster cluster(cp);
  auto p0 = cluster.open_port(0, 2);
  cluster.sim().spawn([](gm::Port& port) -> sim::Task {
    nic::BarrierToken btok;
    btok.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
    btok.peers = {gm::Endpoint{1, 2}};
    co_await port.provide_barrier_buffer();
    (void)co_await port.barrier_send(std::move(btok));  // never completes (peer absent)
    nic::ReduceToken rtok;
    rtok.op = nic::ReduceOp::kSum;
    (void)co_await port.reduce_send(std::move(rtok));
  }(*p0));
  EXPECT_THROW(cluster.sim().run(), std::logic_error);
}

TEST(AllreduceTest, LateJoinerRecoveredByClosedPortMachinery) {
  // A child's partial reaches a parent whose port is still closed; the §3.2
  // record-then-reject flush must re-deliver it (value intact).
  host::ClusterParams cp;
  cp.nodes = 2;
  host::Cluster cluster(cp);
  std::vector<gm::Endpoint> group{{0, 2}, {1, 2}};
  auto root = cluster.make_port(0, 2);  // root's port opens late
  auto leaf = cluster.open_port(1, 2);

  std::int64_t leaf_result = 0, root_result = 0;
  cluster.sim().spawn([](gm::Port& port, std::vector<gm::Endpoint> g,
                         std::int64_t* out) -> sim::Task {
    ReduceMember m(port, g, Location::kNic, ReduceOp::kSum);
    *out = co_await m.allreduce(11);
  }(*leaf, group, &leaf_result));
  cluster.sim().spawn([](sim::Simulator& sim, gm::Port& port, std::vector<gm::Endpoint> g,
                         std::int64_t* out) -> sim::Task {
    co_await sim.delay(2_ms);
    port.open();
    ReduceMember m(port, g, Location::kNic, ReduceOp::kSum);
    *out = co_await m.allreduce(31);
  }(cluster.sim(), *root, group, &root_result));
  cluster.sim().run(sim::SimTime{0} + 100_ms);
  EXPECT_EQ(root_result, 42);
  EXPECT_EQ(leaf_result, 42);
}

}  // namespace
}  // namespace nicbar
