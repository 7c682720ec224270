#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nicbar::sim {
namespace {

using namespace nicbar::sim::literals;

// --- Condition ---------------------------------------------------------------

Task cond_waiter(Condition& c, std::vector<int>& log, int id) {
  co_await c.wait();
  log.push_back(id);
}

TEST(ConditionTest, NotifyAllReleasesAllWaitersInOrder) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) sim.spawn(cond_waiter(cond, log, i));
  sim.schedule_in(5_us, [&] { cond.notify_all(); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now().ps(), (5_us).ps());
}

TEST(ConditionTest, LateWaitersNeedNextNotify) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> log;
  sim.spawn(cond_waiter(cond, log, 1));
  sim.schedule_in(1_us, [&] { cond.notify_all(); });
  sim.schedule_in(2_us, [&] { sim.spawn(cond_waiter(cond, log, 2)); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(cond.waiter_count(), 1u);
  cond.notify_all();
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

// --- Gate ----------------------------------------------------------------------

Task gate_waiter(Gate& g, int& passed, Simulator& sim, SimTime& when) {
  co_await g.wait();
  ++passed;
  when = sim.now();
}

TEST(GateTest, WaitersPassWhenOpened) {
  Simulator sim;
  Gate gate(sim);
  int passed = 0;
  SimTime when{};
  sim.spawn(gate_waiter(gate, passed, sim, when));
  sim.schedule_in(3_us, [&] { gate.open(); });
  sim.run();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(when.ps(), (3_us).ps());
}

TEST(GateTest, OpenGateIsTransparent) {
  Simulator sim;
  Gate gate(sim);
  gate.open();
  int passed = 0;
  SimTime when{};
  sim.spawn(gate_waiter(gate, passed, sim, when));
  sim.run();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(when.ps(), 0);
}

TEST(GateTest, DoubleOpenHarmless) {
  Simulator sim;
  Gate gate(sim);
  gate.open();
  gate.open();
  EXPECT_TRUE(gate.is_open());
}

TEST(GateTest, ResetClosesAgain) {
  Simulator sim;
  Gate gate(sim);
  gate.open();
  gate.reset();
  EXPECT_FALSE(gate.is_open());
  int passed = 0;
  SimTime when{};
  sim.spawn(gate_waiter(gate, passed, sim, when));
  sim.run();
  EXPECT_EQ(passed, 0);  // still waiting
  gate.open();
  sim.run();
  EXPECT_EQ(passed, 1);
}

// --- Mailbox -------------------------------------------------------------------

Task mb_consumer(Mailbox<int>& mb, std::vector<int>& got, int n) {
  for (int i = 0; i < n; ++i) {
    got.push_back(co_await mb.recv());
  }
}

TEST(MailboxTest, SendBeforeRecv) {
  Simulator sim;
  Mailbox<int> mb(sim);
  mb.send(7);
  mb.send(8);
  std::vector<int> got;
  sim.spawn(mb_consumer(mb, got, 2));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
}

TEST(MailboxTest, RecvBeforeSendSuspends) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn(mb_consumer(mb, got, 1));
  sim.run();
  EXPECT_TRUE(got.empty());
  mb.send(42);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST(MailboxTest, FifoAcrossManyValues) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn(mb_consumer(mb, got, 100));
  for (int i = 0; i < 100; ++i) {
    sim.schedule_in(microseconds(i), [&, i] { mb.send(i); });
  }
  sim.run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(MailboxTest, MultipleWaitersServedFifo) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<std::string> log;
  auto consumer = [](Mailbox<int>& box, std::vector<std::string>& l, std::string name) -> Task {
    const int v = co_await box.recv();
    l.push_back(name + ":" + std::to_string(v));
  };
  sim.spawn(consumer(mb, log, "a"));
  sim.spawn(consumer(mb, log, "b"));
  sim.schedule_in(1_us, [&] {
    mb.send(1);
    mb.send(2);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a:1", "b:2"}));
}

TEST(MailboxTest, TryRecvNonBlocking) {
  Simulator sim;
  Mailbox<int> mb(sim);
  EXPECT_FALSE(mb.try_recv().has_value());
  mb.send(9);
  auto v = mb.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_TRUE(mb.empty());
}

TEST(MailboxTest, MoveOnlyValues) {
  Simulator sim;
  Mailbox<std::unique_ptr<int>> mb(sim);
  mb.send(std::make_unique<int>(5));
  std::unique_ptr<int> got;
  sim.spawn([](Mailbox<std::unique_ptr<int>>& box, std::unique_ptr<int>& out) -> Task {
    out = co_await box.recv();
  }(mb, got));
  sim.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 5);
}

// --- Mailbox::recv_for ------------------------------------------------------------

/// Receives once with `timeout`, recording the outcome and when it came.
Task timed_consumer(Simulator& sim, Mailbox<int>& mb, Duration timeout,
                    std::optional<int>& got, SimTime& when) {
  got = co_await mb.recv_for(timeout);
  when = sim.now();
}

TEST(MailboxTest, RecvForTimesOutAtExactlyNowPlusTimeout) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::optional<int> got = 1;
  SimTime when{};
  sim.schedule_in(3_us, [&] { sim.spawn(timed_consumer(sim, mb, 5_us, got, when)); });
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(when.ps(), (8_us).ps());
  // The expired receiver left the mailbox: a later value stays queued.
  mb.send(4);
  sim.run();
  EXPECT_EQ(mb.size(), 1u);
}

TEST(MailboxTest, RecvForTimeoutInTheMiddleLeavesTheOthersServedFifo) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got_a, got_c;
  std::optional<int> got_b = 1;
  SimTime when_b{};
  sim.spawn(mb_consumer(mb, got_a, 1));
  sim.spawn(timed_consumer(sim, mb, 2_us, got_b, when_b));
  sim.spawn(mb_consumer(mb, got_c, 1));
  sim.schedule_in(5_us, [&] {
    mb.send(1);
    mb.send(2);
  });
  sim.run();
  EXPECT_FALSE(got_b.has_value());
  EXPECT_EQ(when_b.ps(), (2_us).ps());
  EXPECT_EQ(got_a, (std::vector<int>{1}));
  EXPECT_EQ(got_c, (std::vector<int>{2}));
  EXPECT_TRUE(mb.empty());
}

TEST(MailboxTest, RecvForSendAtTheTimeoutInstantWins) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::optional<int> got;
  SimTime when{};
  // Scheduled before the receiver arms its timer, so at 5 us the send runs
  // first and claims the waiter; the timer then finds the value and yields.
  sim.schedule_in(5_us, [&] { mb.send(7); });
  sim.spawn(timed_consumer(sim, mb, 5_us, got, when));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(when.ps(), (5_us).ps());
  EXPECT_TRUE(mb.empty());
}

TEST(MailboxTest, RecvForNonPositiveTimeoutNeverSuspends) {
  for (const Duration timeout : {Duration{0}, Duration{-1}}) {
    Simulator sim;
    Mailbox<int> mb(sim);
    std::optional<int> got = 1;
    SimTime when{};
    sim.spawn(timed_consumer(sim, mb, timeout, got, when));
    // One event: the consumer's start. A suspension would add its timer.
    EXPECT_EQ(sim.run(), 1u) << timeout.ps();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(when.ps(), 0);
    mb.send(4);
    EXPECT_EQ(mb.size(), 1u) << "a non-positive timeout registered a waiter";
    // A queued value is still taken without suspending.
    sim.spawn(timed_consumer(sim, mb, timeout, got, when));
    EXPECT_EQ(sim.run(), 1u);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 4);
  }
}

// --- Resource --------------------------------------------------------------------

Task res_user(Simulator& sim, Resource& r, Duration hold, std::vector<int>& log, int id) {
  co_await r.acquire();
  log.push_back(id);
  co_await sim.delay(hold);
  r.release();
}

TEST(ResourceTest, SerializesUnitCapacity) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> log;
  SimTime done{};
  for (int i = 0; i < 3; ++i) sim.spawn(res_user(sim, res, 10_us, log, i));
  sim.spawn([](Simulator& s, Resource& r, SimTime& out) -> Task {
    co_await r.acquire();
    r.release();
    out = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(done.ps(), (30_us).ps());  // after all three 10us holds
}

TEST(ResourceTest, CapacityTwoOverlaps) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) sim.spawn(res_user(sim, res, 10_us, log, i));
  sim.run();
  // Two at t=0, two at t=10; all done by t=20.
  EXPECT_EQ(sim.now().ps(), (20_us).ps());
  EXPECT_EQ(log.size(), 4u);
}

TEST(ResourceTest, NoSlotStealingOnHandOff) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> log;
  // First user holds 10us; second queued; a third arrives exactly when the
  // first releases — FIFO order must hold.
  sim.spawn(res_user(sim, res, 10_us, log, 0));
  sim.schedule_in(1_us, [&] { sim.spawn(res_user(sim, res, 10_us, log, 1)); });
  sim.schedule_in(10_us, [&] { sim.spawn(res_user(sim, res, 10_us, log, 2)); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(res.in_use(), 0u);
}

TEST(ResourceTest, WaitersAreHandedSlotsInFifoOrder) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<int> log;
  std::vector<SimTime> granted(6);
  // Six users arrive 1 us apart and hold 10 us each: two run at once, and
  // the four that queue take the freed slots in arrival order.
  for (int i = 0; i < 6; ++i) {
    sim.schedule_in(microseconds(i), [&, i] {
      sim.spawn([](Simulator& s, Resource& r, std::vector<int>& l, SimTime& at,
                   int id) -> Task {
        co_await r.acquire();
        l.push_back(id);
        at = s.now();
        co_await s.delay(10_us);
        r.release();
      }(sim, res, log, granted[static_cast<std::size_t>(i)], i));
    });
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  const std::vector<std::int64_t> expect_us{0, 1, 10, 11, 20, 21};
  for (std::size_t i = 0; i < granted.size(); ++i) {
    EXPECT_EQ(granted[i].ps(), microseconds(static_cast<double>(expect_us[i])).ps()) << i;
  }
  EXPECT_EQ(res.in_use(), 0u);
}

TEST(ResourceTest, UseHelperAcquiresAndReleases) {
  Simulator sim;
  Resource res(sim, 1);
  SimTime t1{}, t2{};
  sim.spawn([](Simulator& s, Resource& r, SimTime& out) -> Task {
    co_await r.use(5_us);
    out = s.now();
  }(sim, res, t1));
  sim.spawn([](Simulator& s, Resource& r, SimTime& out) -> Task {
    co_await r.use(5_us);
    out = s.now();
  }(sim, res, t2));
  sim.run();
  EXPECT_EQ(t1.ps(), (5_us).ps());
  EXPECT_EQ(t2.ps(), (10_us).ps());
}

}  // namespace
}  // namespace nicbar::sim
