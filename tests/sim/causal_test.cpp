// Causal span tracer: id invariant, critical-path extraction, telescoping
// attribution, profiles — plus the end-to-end properties of a traced NIC
// barrier experiment (acyclic DAG, full attribution, and a bit-identical
// timeline with tracing on or off).
#include "sim/causal.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "coll/runner.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"

namespace nicbar {
namespace {

using sim::causal::CausalTracer;
using sim::causal::CriticalPath;
using sim::causal::kSegmentCount;
using sim::causal::PathProfile;
using sim::causal::Segment;
using sim::causal::SpanId;
using sim::Duration;
using sim::SimTime;

SimTime at_us(double us) { return SimTime{0} + sim::microseconds(us); }

TEST(CausalTracerTest, RecordAssignsMonotonicIdsAndKeepsParents) {
  CausalTracer c;
  const SpanId a = c.record(Segment::kHost, 0, "a", at_us(0), at_us(1));
  const SpanId b = c.record(Segment::kSend, 0, "b", at_us(1), at_us(2), a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(c.span(b), nullptr);
  ASSERT_EQ(c.span(b)->parents.size(), 1u);
  EXPECT_EQ(c.span(b)->parents.front(), a);
  EXPECT_EQ(c.span(0), nullptr);
  EXPECT_EQ(c.span(99), nullptr);
  EXPECT_TRUE(c.verify_acyclic());
}

TEST(CausalTracerTest, AddParentRejectsEdgesThatWouldBreakTheIdInvariant) {
  CausalTracer c;
  const SpanId a = c.record(Segment::kHost, 0, "a", at_us(0), at_us(1));
  const SpanId b = c.record(Segment::kHost, 0, "b", at_us(1), at_us(2));
  c.add_parent(a, b);  // parent id > span id: a back edge, silently dropped
  c.add_parent(a, a);  // self edge, silently dropped
  c.add_parent(0, a);  // no-op on the null span
  ASSERT_NE(c.span(a), nullptr);
  EXPECT_TRUE(c.span(a)->parents.empty());
  EXPECT_TRUE(c.verify_acyclic());
  c.add_parent(b, a);  // legal join
  ASSERT_EQ(c.span(b)->parents.size(), 1u);
  EXPECT_TRUE(c.verify_acyclic());
}

TEST(CausalTracerTest, CriticalPathFollowsTheLatestParentAndTelescopes) {
  // Diamond: the origin forks into a fast and a slow branch; the join waits
  // on the slow one and then idles 1us before starting (queue time).
  CausalTracer c;
  const SpanId origin = c.record(Segment::kHost, 0, "origin", at_us(0), at_us(1));
  const SpanId fast = c.record(Segment::kSend, 0, "fast", at_us(1), at_us(2), origin);
  const SpanId slow = c.record(Segment::kWire, 1, "slow", at_us(1), at_us(5), origin);
  const SpanId join = c.record(Segment::kRecv, 1, "join", at_us(6), at_us(7), fast, slow);

  const CriticalPath path = c.critical_path(join);
  ASSERT_EQ(path.steps.size(), 3u);  // origin -> slow -> join (fast is off-path)
  EXPECT_EQ(path.steps[0].span, origin);
  EXPECT_EQ(path.steps[1].span, slow);
  EXPECT_EQ(path.steps[2].span, join);
  EXPECT_EQ(path.total, sim::microseconds(7.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kHost)], sim::microseconds(1.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kWire)], sim::microseconds(4.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kRecv)], sim::microseconds(1.0));
  EXPECT_EQ(path.queue[static_cast<std::size_t>(Segment::kRecv)], sim::microseconds(1.0));
  EXPECT_EQ(path.self[static_cast<std::size_t>(Segment::kSend)], Duration{0});
  // The invariant everything downstream relies on: attribution is complete.
  EXPECT_EQ(path.attributed(), path.total);
}

TEST(CausalTracerTest, ProfileAggregatesCompletedBarriers) {
  CausalTracer c;
  // Barrier 1: 2us of host work. Barrier 2: 6us (1us host + 5us wire).
  const SpanId s1 = c.record(Segment::kHost, 0, "b1", at_us(0), at_us(2));
  c.complete_barrier(0, 2, 0, s1);
  const SpanId o2 = c.record(Segment::kHost, 0, "b2", at_us(10), at_us(11));
  const SpanId w2 = c.record(Segment::kWire, 0, "b2w", at_us(11), at_us(16), o2);
  c.complete_barrier(0, 2, 1, w2);
  ASSERT_EQ(c.completed().size(), 2u);

  const PathProfile all = c.profile();
  EXPECT_EQ(all.barriers, 2u);
  EXPECT_EQ(all.total, sim::microseconds(8.0));
  EXPECT_EQ(all.attributed(), all.total);
  EXPECT_EQ(all.self[static_cast<std::size_t>(Segment::kHost)], sim::microseconds(3.0));
  EXPECT_EQ(all.self[static_cast<std::size_t>(Segment::kWire)], sim::microseconds(5.0));
  // (node, segment) hot map: both barriers ran on node 0.
  const auto host_key = std::make_pair(std::uint32_t{0},
                                       static_cast<std::uint8_t>(Segment::kHost));
  ASSERT_TRUE(all.by_node_segment.count(host_key) == 1);
  EXPECT_EQ(all.by_node_segment.at(host_key), sim::microseconds(3.0));

  // Tail filter: the threshold is the floor-ranked percentile of the barrier
  // totals, so with two samples p99 still admits both; p100 keeps only the
  // slowest barrier.
  const PathProfile p99 = c.profile(99.0);
  EXPECT_EQ(p99.barriers, 2u);
  const PathProfile tail = c.profile(100.0);
  EXPECT_EQ(tail.barriers, 1u);
  EXPECT_EQ(tail.total, sim::microseconds(6.0));
}

TEST(CausalTracerTest, BreakdownGroupsTheCriticalPathByResource) {
  // host post -> engine job -> (1us queue) link hop -> PCI transfer -> host
  // wakeup, plus a zero-length firmware join: each step's self lands in its
  // resource's row, every queue in the queue row, and the rows tile the
  // path exactly.
  using sim::causal::Resource;
  using sim::causal::Span;
  CausalTracer c;
  const auto span = [&](Segment seg, Resource res, double from, double to, SpanId parent,
                        double busy_to = -1) {
    return c.record(Span{.seg = seg, .res = res, .label = "s", .start = at_us(from),
                         .end = at_us(to), .busy_end = at_us(busy_to < 0 ? to : busy_to)},
                    parent);
  };
  const SpanId post = span(Segment::kHost, Resource::kHost, 0, 2, 0);
  const SpanId job = span(Segment::kSdma, Resource::kSdma, 2, 5, post);
  const SpanId hop = span(Segment::kWire, Resource::kLink, 6, 8, job, 7.5);
  const SpanId join = c.record(Segment::kFirmware, 0, "join", at_us(8), at_us(8), hop);
  const SpanId dma = span(Segment::kRdma, Resource::kPci, 8, 8.5, join);
  const SpanId wake = span(Segment::kHost, Resource::kHost, 8.5, 10.5, dma);
  c.complete_barrier(0, 2, 0, wake);

  const sim::causal::Breakdown b = c.breakdown();
  EXPECT_EQ(b.barriers, 1u);
  EXPECT_EQ(b.host, sim::microseconds(4.0));
  EXPECT_EQ(b.nic, sim::microseconds(3.0));
  EXPECT_EQ(b.wire, sim::microseconds(2.0));  // the hop's propagation too
  EXPECT_EQ(b.dma, sim::microseconds(0.5));
  EXPECT_EQ(b.queue, sim::microseconds(1.0));
  EXPECT_EQ(b.total, sim::microseconds(10.5));
  EXPECT_EQ(b.host + b.nic + b.wire + b.dma + b.queue, b.total);
}

TEST(CausalTracerTest, ClearResetsEverything) {
  CausalTracer c;
  const SpanId s = c.record(Segment::kHost, 0, "x", at_us(0), at_us(1));
  c.complete_barrier(0, 2, 0, s);
  c.clear();
  EXPECT_EQ(c.span_count(), 0u);
  EXPECT_TRUE(c.completed().empty());
}

// --- End-to-end over a real experiment -----------------------------------------

TEST(CausalIntegrationTest, TracedBarrierDagIsAcyclicAndFullyAttributed) {
  coll::ExperimentParams p;
  p.nodes = 16;
  p.reps = 5;
  p.spec.location = coll::Location::kNic;
  sim::telemetry::Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const CausalTracer& c = *t.causal();
  EXPECT_TRUE(c.verify_acyclic());
  // Every member completed every rep, and each completion's critical path
  // attributes the whole latency with nothing left over.
  ASSERT_EQ(c.completed().size(), 16u * 5u);
  for (const sim::causal::CompletedBarrier& cb : c.completed()) {
    const CriticalPath path = c.critical_path(cb.sink);
    EXPECT_EQ(path.total, cb.total);
    EXPECT_EQ(path.attributed(), path.total) << "barrier at node " << cb.node;
    EXPECT_FALSE(path.steps.empty());
  }
}

TEST(CausalIntegrationTest, TracingKeepsTheTimelineBitIdentical) {
  // Recording spans must never perturb simulated time: the traced run's
  // result is bit-identical to the bare run (same discipline as the rest of
  // the telemetry bundle, extended to the causal tracer).
  coll::ExperimentParams p;
  p.nodes = 8;
  p.reps = 4;
  p.spec.location = coll::Location::kNic;
  const coll::ExperimentResult bare = coll::run_barrier_experiment(p);

  sim::telemetry::Telemetry t;
  t.enable_causal();
  coll::ExperimentParams traced = p;
  traced.cluster.telemetry = &t;
  const coll::ExperimentResult wired = coll::run_barrier_experiment(traced);

  EXPECT_EQ(bare.total_us, wired.total_us);
  EXPECT_DOUBLE_EQ(bare.mean_us, wired.mean_us);
  EXPECT_EQ(bare.barrier_packets_sent, wired.barrier_packets_sent);
  EXPECT_GT(t.causal()->span_count(), 0u);
}

TEST(CausalIntegrationTest, GatherBroadcastAlsoCompletesItsDag) {
  coll::ExperimentParams p;
  p.nodes = 9;  // non-trivial tree with a fold-free shape
  p.reps = 3;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
  p.spec.gb_dimension = 3;
  sim::telemetry::Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const CausalTracer& c = *t.causal();
  EXPECT_TRUE(c.verify_acyclic());
  ASSERT_EQ(c.completed().size(), 9u * 3u);
  for (const sim::causal::CompletedBarrier& cb : c.completed()) {
    const CriticalPath path = c.critical_path(cb.sink);
    EXPECT_EQ(path.attributed(), path.total);
  }

  // The breakdown regroups the same walks: host and wire rows are segment
  // sums, the queue row every segment's queue, and NIC + DMA the rest.
  const sim::causal::Breakdown b = c.breakdown();
  const PathProfile prof = c.profile();
  const auto self = [&](Segment s) { return prof.self[static_cast<std::size_t>(s)]; };
  Duration queue{0};
  for (const Duration q : prof.queue) queue += q;
  EXPECT_EQ(b.barriers, prof.barriers);
  EXPECT_EQ(b.total, prof.total);
  EXPECT_EQ(b.host, self(Segment::kHost));
  EXPECT_EQ(b.wire, self(Segment::kWire) + self(Segment::kSwitch));
  EXPECT_EQ(b.queue, queue);
  EXPECT_GT(b.dma.ps(), 0);
  EXPECT_EQ(b.nic + b.dma, prof.total - b.host - b.wire - b.queue);
}

}  // namespace
}  // namespace nicbar
