#include "sim/server.hpp"

#include <gtest/gtest.h>

#include "sim/check.hpp"

#include <vector>

namespace nicbar::sim {
namespace {

using namespace nicbar::sim::literals;

TEST(BusyServerTest, IdleServerStartsImmediately) {
  Simulator sim;
  BusyServer srv(sim, "srv");
  SimTime done = srv.submit(5_us);
  EXPECT_EQ(done.ps(), (5_us).ps());
  EXPECT_TRUE(srv.busy());
}

TEST(BusyServerTest, JobsQueueFifo) {
  Simulator sim;
  BusyServer srv(sim);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    srv.submit(10_us, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].ps(), (10_us).ps());
  EXPECT_EQ(completions[1].ps(), (20_us).ps());
  EXPECT_EQ(completions[2].ps(), (30_us).ps());
}

TEST(BusyServerTest, GapsLeaveServerIdle) {
  Simulator sim;
  BusyServer srv(sim);
  srv.submit(1_us);
  sim.run(SimTime{0} + 5_us);  // advance past the job
  EXPECT_FALSE(srv.busy());
  sim.schedule_in(5_us, [&] {
    const SimTime done = srv.submit(2_us);
    // Starts fresh at t=10us, not queued behind the old job.
    EXPECT_EQ(done.ps(), (12_us).ps());
  });
  sim.run();
}

TEST(BusyServerTest, StatisticsAccumulate) {
  Simulator sim;
  BusyServer srv(sim);
  srv.submit(4_us);
  srv.submit(6_us);  // queues 4us
  sim.run(SimTime{0} + 10_us);  // run exactly to the busy horizon
  EXPECT_EQ(srv.jobs(), 2u);
  EXPECT_EQ(srv.busy_total().ps(), (10_us).ps());
  EXPECT_EQ(srv.queue_delay_total().ps(), (4_us).ps());
  EXPECT_NEAR(srv.utilisation(), 1.0, 1e-9);
}

TEST(BusyServerTest, ZeroDurationJob) {
  Simulator sim;
  BusyServer srv(sim);
  bool ran = false;
  srv.submit(Duration{0}, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ps(), 0);
}

TEST(BusyServerTest, JobQueuedAheadStartsAtItsReadyInstant) {
  Simulator sim;
  BusyServer srv(sim);
  EXPECT_EQ(srv.submit_at(SimTime{0} + 3_us, 2_us).ps(), (5_us).ps());
  // Ready at 4 us, behind a job that ends at 5 us: one stall of 1 us.
  EXPECT_EQ(srv.submit_at(SimTime{0} + 4_us, 2_us).ps(), (7_us).ps());
  EXPECT_EQ(srv.stalls(), 1u);
  EXPECT_EQ(srv.queue_delay_total().ps(), (1_us).ps());
}

TEST(BusyServerTest, ReadyInstantsMayNotDecrease) {
  Simulator sim;
  BusyServer srv(sim, "wire");
  srv.submit_at(SimTime{0} + 5_us, 1_us);
  // Either would take the FIFO slot of the job ready at 5 us.
  EXPECT_THROW(srv.submit_at(SimTime{0} + 4_us, 1_us), check::InvariantViolation);
  EXPECT_THROW(srv.submit(1_us), check::InvariantViolation);
  EXPECT_EQ(srv.submit_at(SimTime{0} + 5_us, 1_us).ps(), (7_us).ps());
}

TEST(BusyServerTest, JobMayNotBeReadyBeforeNow) {
  Simulator sim;
  BusyServer srv(sim);
  sim.schedule_in(10_us, [&] {
    EXPECT_THROW(srv.submit_at(SimTime{0} + 5_us, 1_us), check::InvariantViolation);
  });
  sim.run();
  EXPECT_EQ(srv.jobs(), 0u);
}

TEST(CycleServerTest, CyclesScaleWithClock) {
  Simulator sim;
  CycleServer slow(sim, 33.0, "lanai43");
  CycleServer fast(sim, 66.0, "lanai72");
  const SimTime a = slow.submit_cycles(660);
  const SimTime b = fast.submit_cycles(660);
  EXPECT_NEAR(a.us(), 20.0, 0.01);  // 660 cycles @33MHz = 20us
  EXPECT_NEAR(b.us(), 10.0, 0.01);  // exactly half at 66MHz
}

TEST(CycleServerTest, SerializedLikeARealProcessor) {
  Simulator sim;
  CycleServer proc(sim, 100.0);
  std::vector<SimTime> done;
  proc.submit_cycles(100, [&] { done.push_back(sim.now()); });  // 1us
  proc.submit_cycles(200, [&] { done.push_back(sim.now()); });  // +2us
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].ps(), (1_us).ps());
  EXPECT_EQ(done[1].ps(), (3_us).ps());
}

TEST(CycleServerTest, CyclesHelperMatchesSubmit) {
  Simulator sim;
  CycleServer proc(sim, 33.0);
  EXPECT_EQ(proc.cycles(33).ps(), cycles_at_mhz(33, 33.0).ps());
  EXPECT_NEAR(proc.cycles(33).us(), 1.0, 0.001);
}

}  // namespace
}  // namespace nicbar::sim
