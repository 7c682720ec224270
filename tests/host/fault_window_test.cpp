// Timed fault windows: when a link reads its plan, and how windows combine.
//
// Each case is `nicbar_run --nodes 2 --reps 20 --reliability shared
// --deadline-us 5000 --fault-plan <plan>`. The windows are a few hundred
// nanoseconds wide and sit on one packet's path, so the instant at which
// the fabric reads them decides whether that packet is lost:
//
//   - a link reads its windows at the instant its wire may start, the
//     instant the packet is ready for it: the end of the switch's routing
//     latency, or the end of the NIC's SEND job. Not when the packet's
//     head reaches the switch, and not when the SEND job is queued;
//   - a link holds its windows sorted by time, whatever order the plan
//     lists them in;
//   - a link or switch port is down at t iff some window covers t, so
//     overlapping windows unite.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "coll/runner.hpp"
#include "sim/fault.hpp"
#include "sim/telemetry.hpp"

namespace nicbar {
namespace {

struct Outcome {
  std::string mean_us;  // as nicbar_run prints it
  std::uint64_t link_drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t port_down_drops = 0;   // switch 0
  std::uint64_t sw0_t1_down_ps = 0;    // link.sw0->t1.down_time_ps
};

Outcome run_plan(const std::string& plan) {
  coll::ExperimentParams p;
  p.nodes = 2;
  p.reps = 20;
  p.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  p.spec.deadline = sim::microseconds(5000.0);
  p.cluster.faults = sim::fault::parse_fault_plan(plan);
  sim::telemetry::Telemetry tel;
  p.cluster.telemetry = &tel;
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);
  EXPECT_EQ(r.barriers_completed, 40u) << plan;

  Outcome o;
  char mean[32];
  std::snprintf(mean, sizeof mean, "%.2f", r.mean_us);
  o.mean_us = mean;
  o.link_drops = r.link_packets_dropped;
  o.retransmissions = r.retransmissions;
  const auto& c = tel.metrics().counters();
  o.port_down_drops = c.at("switch0.port_down_drops");
  o.sw0_t1_down_ps = c.at("link.sw0->t1.down_time_ps");
  return o;
}

TEST(FaultWindowTest, ASwitchOutputLinkIsReadAfterTheRoutingLatency) {
  // Node 0's first packet reaches the switch at 11.95 us, inside the
  // window, and is ready for sw0->t1 at 12.25 us, after the routing
  // latency, when the window has closed. Read at head arrival instead, it
  // would be lost: 56.48 us, 1 drop, 2 retransmissions.
  const Outcome o = run_plan("link-down 11.781 12.031 sw0->t1\n");
  EXPECT_EQ(o.mean_us, "44.02");
  EXPECT_EQ(o.link_drops, 0u);
  EXPECT_EQ(o.retransmissions, 0u);
}

TEST(FaultWindowTest, AnUplinkIsReadWhenTheSendJobEnds) {
  // Node 1 queues a SEND job at 27.05 us; it ends at 27.96 us, inside the
  // window, so its packet is lost. Read when the job is queued, it would
  // not be.
  const Outcome o = run_plan("link-down 27.947 28.197 t1->sw0\n");
  EXPECT_EQ(o.mean_us, "44.02");
  EXPECT_EQ(o.link_drops, 1u);
}

TEST(FaultWindowTest, WindowsAreReadInTimeOrderNotPlanOrder) {
  // The second line's window is earlier and empty of traffic; the first
  // line's still catches the packet.
  const Outcome o = run_plan("link-down 27.9 28.3 t1->sw0\nlink-down 11 11.01 t1->sw0\n");
  EXPECT_EQ(o.mean_us, "44.02");
  EXPECT_EQ(o.link_drops, 1u);
}

TEST(FaultWindowTest, OverlappingLinkWindowsUnite) {
  // [10, 20) and [15, 30) are [10, 30): the second window's end, not the
  // first's, brings the link back.
  const Outcome united = run_plan("link-down 10 20 sw0->t1\nlink-down 15 30 sw0->t1\n");
  const Outcome single = run_plan("link-down 10 30 sw0->t1\n");
  EXPECT_EQ(united.sw0_t1_down_ps, 20'000'000u);
  EXPECT_EQ(united.link_drops, 2u);
  EXPECT_EQ(united.link_drops, single.link_drops);
  EXPECT_EQ(united.sw0_t1_down_ps, single.sw0_t1_down_ps);
  EXPECT_EQ(united.mean_us, single.mean_us);
}

TEST(FaultWindowTest, OverlappingSwitchPortWindowsUnite) {
  const Outcome united =
      run_plan("switch-port-down 0 1 10 20\nswitch-port-down 0 1 15 30\n");
  const Outcome single = run_plan("switch-port-down 0 1 10 30\n");
  EXPECT_EQ(united.port_down_drops, 2u);
  EXPECT_EQ(united.port_down_drops, single.port_down_drops);
  EXPECT_EQ(united.mean_us, single.mean_us);
  EXPECT_EQ(united.retransmissions, single.retransmissions);
}

}  // namespace
}  // namespace nicbar
