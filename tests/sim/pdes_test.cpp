// Unit tests for the conservative PDES engine parts: the keyed event queue,
// the frame arena, the LanePool, thread-ownership checking, and the
// PartitionedSimulator window loop. The end-to-end bit-identity property is
// pinned separately in tests/integration/pdes_bit_identity_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/exec.hpp"
#include "sim/frame_arena.hpp"
#include "sim/pdes.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {
namespace {

using pdes::PartitionedSimulator;

SimTime at_ps(std::int64_t ps) { return SimTime{ps}; }

// --- EventQueue: keys and batches ------------------------------------------

TEST(EventQueueKeyed, KeyedEventsFireInKeyOrderNotInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  // Insert in reverse key order at one instant.
  q.schedule_keyed(at_ps(100), EventKey{7, 0}, [&] { fired.push_back(7); });
  q.schedule_keyed(at_ps(100), EventKey{3, 9}, [&] { fired.push_back(39); });
  q.schedule_keyed(at_ps(100), EventKey{3, 2}, [&] { fired.push_back(32); });
  SimTime t;
  while (!q.empty()) q.pop(t)();
  EXPECT_EQ(fired, (std::vector<int>{32, 39, 7}));
}

TEST(EventQueueKeyed, KeyedSortsBeforeUnkeyedAtTheSameInstant) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at_ps(50), [&] { fired.push_back(1); });
  q.schedule(at_ps(50), [&] { fired.push_back(2); });
  q.schedule_keyed(at_ps(50), EventKey{1000, 0}, [&] { fired.push_back(3); });
  SimTime t;
  while (!q.empty()) q.pop(t)();
  // The keyed event (inserted last) still precedes both unkeyed ones, and
  // the unkeyed pair keeps insertion order.
  EXPECT_EQ(fired, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueueKeyed, BatchInsertEquivalentToIndividualKeyedSchedules) {
  // Same items through schedule_keyed and schedule_batch must pop in the
  // same order — including a batch big enough to trigger the bottom-up
  // heapify fast path (batch >= heap size).
  std::vector<int> a;
  std::vector<int> b;
  const int n = 64;
  {
    EventQueue q;
    for (int i = n - 1; i >= 0; --i) {
      q.schedule_keyed(at_ps(10 + i % 3), EventKey{static_cast<std::uint64_t>(i), 0},
                       [&a, i] { a.push_back(i); });
    }
    SimTime t;
    while (!q.empty()) q.pop(t)();
  }
  {
    EventQueue q;
    q.schedule(at_ps(5), [&b] { b.push_back(-1); });  // small existing heap
    std::vector<EventQueue::BatchItem> items;
    for (int i = n - 1; i >= 0; --i) {
      items.push_back(EventQueue::BatchItem{at_ps(10 + i % 3),
                                            EventKey{static_cast<std::uint64_t>(i), 0},
                                            EventQueue::Action{[&b, i] { b.push_back(i); }}});
    }
    q.schedule_batch(items);
    SimTime t;
    while (!q.empty()) q.pop(t)();
    ASSERT_EQ(b.front(), -1);
    b.erase(b.begin());
  }
  EXPECT_EQ(a, b);
}

// --- Frame arena ------------------------------------------------------------

TEST(FrameArena, RecyclesSameSizeClass) {
  void* p1 = frame_arena::allocate(200);
  frame_arena::deallocate(p1);
  void* p2 = frame_arena::allocate(195);  // same 64-byte size class as 200
  EXPECT_EQ(p1, p2);
  frame_arena::deallocate(p2);
}

TEST(FrameArena, OversizeAllocationsFallThrough) {
  void* p = frame_arena::allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  frame_arena::deallocate(p);
}

TEST(FrameArena, CoroutineFramesAllocateThroughArena) {
  // Spawning and completing many identical processes must reuse frames: the
  // second spawn's frame comes off the freelist the first one released.
  Simulator sim;
  int runs = 0;
  auto proc = [](Simulator& s, int& count) -> Task {
    co_await s.delay(Duration{10});
    ++count;
  };
  for (int i = 0; i < 100; ++i) sim.spawn(proc(sim, runs));
  sim.run();
  EXPECT_EQ(runs, 100);
}

// --- LanePool ---------------------------------------------------------------

TEST(LanePool, RunsEveryLaneExactlyOnce) {
  exec::LanePool pool(4);
  std::vector<std::atomic<int>> hits(13);
  pool.run(13, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(LanePool, StaticAssignmentIsStableAcrossRounds) {
  exec::LanePool pool(3);
  std::vector<std::thread::id> first(9);
  std::vector<std::thread::id> second(9);
  pool.run(9, [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  pool.run(9, [&](std::size_t i) { second[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(first[i], second[i]) << "lane " << i << " migrated between rounds";
    // lane i and lane i+workers share a worker
    EXPECT_EQ(first[i], first[i % 3]);
  }
}

TEST(LanePool, SingleWorkerRunsInlineOnCaller) {
  exec::LanePool pool(1);
  const std::thread::id me = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  pool.run(4, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, me);
}

TEST(LanePool, RethrowsFirstErrorByWorkerRank) {
  exec::LanePool pool(4);
  try {
    pool.run(8, [&](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("lane " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Worker rank order: worker 1 owns lanes {1, 5}; lane 1 fails first.
    EXPECT_STREQ(e.what(), "lane 1");
  }
  // The pool must survive a throwing round.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

// Many short rounds with plain (non-atomic) data in both directions: the
// coordinator writes each lane's input before run(), the lane writes its
// output, and the coordinator reads it after run(). Only the pool's round
// hand-off orders those accesses, so TSan checks its happens-before edges.
TEST(LanePool, ManyShortRoundsPublishPlainLaneData) {
  constexpr std::size_t kLanes = 7;
  constexpr std::uint64_t kRounds = 20000;
  exec::LanePool pool(3);
  std::vector<std::uint64_t> in(kLanes);
  std::vector<std::uint64_t> out(kLanes);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kLanes; ++i) in[i] = r * kLanes + i;
    pool.run(kLanes, [&](std::size_t i) { out[i] = 2 * in[i] + 1; });
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(out[i], 2 * (r * kLanes + i) + 1) << "round " << r << " lane " << i;
    }
  }
}

// More workers than hardware threads (capped at 8): the helpers park instead
// of spinning, and the pool still completes rounds and rethrows by rank.
TEST(LanePool, OversubscribedPoolCompletesRoundsAndRethrowsByRank) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(hw + 1, 8u);
  exec::LanePool pool(workers);
  ASSERT_EQ(pool.workers(), workers);
  const std::size_t lanes = 2 * workers;
  std::vector<int> hits(lanes, 0);
  for (int r = 0; r < 500; ++r) pool.run(lanes, [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 500);
  try {
    // Every helper's lanes throw; worker 1's first lane is lane 1.
    pool.run(lanes, [&](std::size_t i) {
      if (i % workers != 0) throw std::runtime_error("lane " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");
  }
  std::atomic<std::size_t> ok{0};
  pool.run(lanes, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), lanes);
}

// Helpers idle past the spin budget park in std::atomic::wait. A round must
// still wake them, and the destructor must wake and join them at once.
TEST(LanePool, DestroyingAParkedPoolReturnsPromptly) {
  auto pool = std::make_unique<exec::LanePool>(3);
  std::atomic<int> ran{0};
  const auto park = [] { std::this_thread::sleep_for(exec::LanePool::kSpinBudget * 100); };
  park();
  pool->run(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
  park();
  const auto t0 = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

// --- Thread ownership (debug builds) ----------------------------------------

#ifndef NDEBUG
TEST(SimOwnership, CrossThreadScheduleTrips) {
  Simulator sim;
  sim.schedule_at(at_ps(10), [] {});  // first touch binds this thread
  bool threw = false;
  std::thread other([&] {
    try {
      sim.schedule_at(at_ps(20), [] {});
    } catch (const check::InvariantViolation& e) {
      threw = e.subsystem() == "sim.owner";
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  sim.run();
}

TEST(SimOwnership, RunRebindsToTheCallingThread) {
  // A simulator handed to another thread (the PDES window pattern) is legal:
  // run_window()/run() re-bind ownership.
  Simulator sim;
  sim.schedule_at(at_ps(10), [] {});
  std::thread worker([&] {
    sim.run_window(at_ps(100));
    sim.schedule_at(at_ps(50), [] {});  // now owned by the worker
    sim.run_window(at_ps(100));
  });
  worker.join();
  sim.run();  // main thread re-binds and finishes
  EXPECT_EQ(sim.now(), at_ps(50));
}
#endif

// --- PartitionedSimulator ----------------------------------------------------

TEST(PartitionedSim, RejectsZeroLookaheadWithMultiplePartitions) {
  EXPECT_THROW(PartitionedSimulator(2, Duration{0}, 1), check::InvariantViolation);
  EXPECT_NO_THROW(PartitionedSimulator(1, Duration{0}, 1));
}

TEST(PartitionedSim, SinglePartitionDelegatesToSerialRun) {
  PartitionedSimulator p(1, Duration{0}, 4);
  std::vector<int> fired;
  p.lane(0).schedule_at(at_ps(10), [&] { fired.push_back(1); });
  p.lane(0).schedule_at(at_ps(20), [&] { fired.push_back(2); });
  EXPECT_EQ(p.run(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(p.stats().windows, 0u);
}

// Two lanes ping-ponging a message through the channel matrix with a fixed
// "propagation" >= lookahead: the canonical conservative workload.
TEST(PartitionedSim, CrossLanePingPongPreservesTimeOrder) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    PartitionedSimulator p(2, Duration{100}, workers);
    std::vector<std::pair<int, std::int64_t>> log;
    std::mutex log_mu;  // lanes append concurrently; order restored below
    std::function<void(std::size_t, int)> hop = [&](std::size_t lane, int n) {
      {
        const std::lock_guard<std::mutex> g(log_mu);
        log.emplace_back(n, p.lane(lane).now().ps());
      }
      if (n >= 6) return;
      const std::size_t to = 1 - lane;
      const SimTime arrive = p.lane(lane).now() + Duration{150};
      p.post(lane, to, arrive, EventKey{static_cast<std::uint64_t>(arrive.ps()), 0},
             [&, to, n] { hop(to, n + 1); });
    };
    p.lane(0).schedule_at(at_ps(0), [&] { hop(0, 0); });
    p.run();
    std::sort(log.begin(), log.end());
    ASSERT_EQ(log.size(), 7u);
    for (int n = 0; n <= 6; ++n) {
      EXPECT_EQ(log[n].first, n);
      EXPECT_EQ(log[n].second, n * 150) << "hop " << n;
    }
    EXPECT_GE(p.stats().windows, 6u);
    EXPECT_EQ(p.stats().channel_messages, 6u);
    // Both lanes land on the same final clock.
    EXPECT_EQ(p.lane(0).now(), p.lane(1).now());
  }
}

TEST(PartitionedSim, RunUntilExecutesEventsAtTheBoundaryAndParksIdleLanes) {
  PartitionedSimulator p(2, Duration{10}, 2);
  int fired = 0;
  p.lane(0).schedule_at(at_ps(100), [&] { ++fired; });
  p.lane(1).schedule_at(at_ps(300), [&] { ++fired; });
  p.run(at_ps(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(p.lane(0).now(), at_ps(100));
  p.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(p.lane(0).now(), at_ps(300));
  EXPECT_EQ(p.lane(1).now(), at_ps(300));
}

TEST(PartitionedSim, StragglerDeliveryTripsTheSafetyCheck) {
  // A post whose arrival undercuts the lookahead lands inside the completed
  // window — the conservative contract is broken and the drain must say so.
  PartitionedSimulator p(2, Duration{100}, 1);
  p.lane(0).schedule_at(at_ps(0), [&] {
    // Claims to arrive at t=1 while the window horizon is 0 + 100.
    p.post(0, 1, at_ps(1), EventKey{1, 0}, [] {});
  });
  p.lane(1).schedule_at(at_ps(500), [] {});
  EXPECT_THROW(p.run(), check::InvariantViolation);
}

TEST(PartitionedSim, LaneExceptionsSurfaceOnTheCoordinator) {
  PartitionedSimulator p(2, Duration{10}, 2);
  auto boom = [](Simulator& s) -> Task {
    co_await s.delay(Duration{5});
    throw std::runtime_error("boom");
  };
  p.lane(1).spawn(boom(p.lane(1)));
  p.lane(0).schedule_at(at_ps(1), [] {});
  EXPECT_THROW(p.run(), std::runtime_error);
}

}  // namespace
}  // namespace nicbar::sim
