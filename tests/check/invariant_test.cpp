// The invariant-checker leg of sim::check: violations throw with full trace
// context, the runtime toggle suppresses them, and an intentionally-injected
// violation (the BarrierSafetyMonitor test hook) is detected end to end.
#include "sim/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nicbar::sim::check {
namespace {

TEST(InvariantTest, ViolationCarriesStructuredTraceContext) {
  try {
    fail("net.link", SimTime{42'000'000}, "sent == delivered", format("link '%s': off by %d",
                                                                      "t0->sw0", 3));
    FAIL() << "fail() must throw";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "net.link");
    EXPECT_EQ(v.when(), SimTime{42'000'000});
    EXPECT_EQ(v.condition(), "sent == delivered");
    EXPECT_EQ(v.detail(), "link 't0->sw0': off by 3");
    const std::string what = v.what();
    EXPECT_NE(what.find("net.link"), std::string::npos);
    EXPECT_NE(what.find("sent == delivered"), std::string::npos);
    EXPECT_NE(what.find("off by 3"), std::string::npos);
  }
}

TEST(InvariantTest, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime{1'000'000}, [] {});
  sim.run();
  try {
    sim.schedule_at(SimTime{500'000}, [] {});
    FAIL() << "scheduling into the past must violate the queue invariant";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "sim.queue");
    EXPECT_EQ(v.when(), SimTime{1'000'000});
  }
  EXPECT_THROW(sim.schedule_in(Duration{-1}, [] {}), InvariantViolation);
}

TEST(InvariantTest, NegativeServiceTimeOnABusyServerThrows) {
  Simulator sim;
  BusyServer server(sim, "pci0");
  try {
    server.submit(Duration{-5});
    FAIL() << "negative service time must violate the server invariant";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "sim.server");
    EXPECT_NE(v.detail().find("pci0"), std::string::npos);
    EXPECT_NE(v.detail().find("-5"), std::string::npos);
  }
}

TEST(InvariantTest, DisabledSuppressesChecksAndRestores) {
  Simulator sim;
  sim.schedule_at(SimTime{1'000'000}, [] {});
  sim.run();
  ASSERT_TRUE(enabled());
  {
    Disabled off;
    EXPECT_FALSE(enabled());
    EXPECT_NO_THROW(sim.schedule_at(SimTime{500'000}, [] {}));
  }
  EXPECT_TRUE(enabled());
  EXPECT_THROW(sim.schedule_at(SimTime{200'000}, [] {}), InvariantViolation);
}

TEST(InvariantTest, BarrierSafetyMonitorAcceptsALegalSequence) {
  BarrierSafetyMonitor mon(3);
  for (int k = 0; k < 5; ++k) {
    for (std::size_t m = 0; m < 3; ++m) mon.arrive(m, SimTime{k * 100});
    for (std::size_t m = 0; m < 3; ++m) mon.complete(m, SimTime{k * 100 + 50});
  }
  EXPECT_EQ(mon.barriers_checked(), 5u);
  EXPECT_EQ(mon.completions(2), 5u);
}

TEST(InvariantTest, InjectedCompletionBeforeArrivalIsDetectedWithContext) {
  // The intentional-violation hook: member 0 "completes" barrier 1 while
  // member 2 has never arrived. The violation must name the guilty barrier
  // and members, not just say "failed".
  BarrierSafetyMonitor mon(3);
  mon.arrive(0, SimTime{10});
  mon.arrive(1, SimTime{12});
  try {
    mon.complete(0, SimTime{99});
    FAIL() << "completion before every arrival must violate barrier safety";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "coll.barrier-safety");
    EXPECT_EQ(v.when(), SimTime{99});
    EXPECT_NE(v.detail().find("member 0"), std::string::npos);
    EXPECT_NE(v.detail().find("member 2"), std::string::npos);
  }
}

TEST(InvariantTest, BarrierSafetyMonitorTracksEpochsIndependently) {
  // Member 1 may run one barrier ahead in arrivals (pipelining), but a
  // completion for epoch 2 needs *everyone's* second arrival.
  BarrierSafetyMonitor mon(2);
  mon.arrive(0, SimTime{1});
  mon.arrive(1, SimTime{1});
  mon.complete(0, SimTime{2});
  mon.complete(1, SimTime{2});
  mon.arrive(1, SimTime{3});  // member 1 enters barrier 2 early
  EXPECT_THROW(mon.complete(1, SimTime{4}), InvariantViolation);
  mon.arrive(0, SimTime{5});
  EXPECT_NO_THROW(mon.complete(1, SimTime{6}));
}

TEST(InvariantTest, BarrierSafetyMonitorAtScaleStillCatchesTheFirstPrematureCompletion) {
  // 1024 members through many clean barriers (the cached arrival floor
  // answers almost every completion), then one member completes barrier 201
  // while member 1000 is still inside barrier 200: the violation must fire
  // on that very completion and name the same members a full scan would.
  constexpr std::size_t kMembers = 1024;
  constexpr int kBarriers = 200;
  BarrierSafetyMonitor mon(kMembers);
  for (int k = 0; k < kBarriers; ++k) {
    for (std::size_t m = 0; m < kMembers; ++m) mon.arrive(m, SimTime{k * 100});
    for (std::size_t m = 0; m < kMembers; ++m) mon.complete(m, SimTime{k * 100 + 50});
  }
  EXPECT_EQ(mon.barriers_checked(), static_cast<std::uint64_t>(kBarriers));
  for (std::size_t m = 0; m < kMembers; ++m) {
    if (m != 1000) mon.arrive(m, SimTime{kBarriers * 100});
  }
  try {
    mon.complete(5, SimTime{kBarriers * 100 + 7});
    FAIL() << "completion before member 1000 arrived must violate barrier safety";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.subsystem(), "coll.barrier-safety");
    EXPECT_EQ(v.when(), SimTime{kBarriers * 100 + 7});
    EXPECT_EQ(v.detail(),
              "member 5 observed completion of barrier 201 before member 1000 arrived "
              "(arrivals=200)");
  }
  EXPECT_EQ(mon.completions(5), static_cast<std::uint64_t>(kBarriers));
  mon.arrive(1000, SimTime{kBarriers * 100 + 9});
  EXPECT_NO_THROW(mon.complete(5, SimTime{kBarriers * 100 + 10}));
  EXPECT_EQ(mon.barriers_checked(), static_cast<std::uint64_t>(kBarriers) + 1);
}

}  // namespace
}  // namespace nicbar::sim::check
