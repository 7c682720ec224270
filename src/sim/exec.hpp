// sim::exec — sharding independent simulation runs across worker threads.
//
// The simulator itself is single-threaded by design (determinism is a core
// requirement), but a parameter sweep is a bag of *independent* deterministic
// simulations: each (config, seed) run builds its own Simulator/Cluster,
// touches no shared state, and produces a result that depends only on its
// inputs. parallel_for exploits exactly that shape: worker threads pull job
// indices from a shared atomic counter and each job writes only to
// index-addressed storage owned by the caller, so the set of results is
// bit-identical for any worker count or interleaving — only wall-clock time
// changes. This is the engine under coll::SweepPlan and every figure bench.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace nicbar::sim::exec {

/// Resolves a requested worker count: 0 means one worker per hardware
/// thread, anything else is taken literally; the result is always >= 1.
[[nodiscard]] unsigned resolve_workers(unsigned requested);

/// Invokes `job(i)` for every i in [0, count), sharded across `workers`
/// threads (after resolve_workers). Each job must be self-contained: it may
/// not touch another job's state, and anything it writes must be addressed
/// by its own index. Blocks until every job finishes. If jobs throw, the
/// first exception (in completion order) is rethrown on the calling thread
/// after all workers have joined; remaining unstarted jobs are abandoned.
/// With a single worker the jobs run inline on the calling thread, in index
/// order, with no thread machinery at all — that path is the serial baseline
/// that parallel runs are asserted bit-identical against.
void parallel_for(std::size_t count, unsigned workers,
                  const std::function<void(std::size_t)>& job);

/// Persistent worker pool with a *static* lane-to-thread assignment: lane i
/// always runs on worker (i mod workers), and worker 0 is the calling
/// (coordinator) thread itself. parallel_for spawns and joins threads per
/// call, which is fine for a parameter sweep but far too heavy for a
/// partitioned simulation that dispatches tens of thousands of short
/// windows. This pool keeps its threads between rounds and hands a round
/// over through two atomics: the coordinator publishes a round by bumping
/// `round_` (release) and every helper retires it by decrementing
/// `outstanding_` (acq_rel); those edges are the happens-before a
/// window-synchronized PDES run relies on. A waiter — a helper awaiting the
/// next round, or the coordinator awaiting the last helper — spins on its
/// word for at most kSpinBudget and then parks in std::atomic::wait. It
/// parks at once when the pool has more workers than the host has hardware
/// threads, where a spinning thread would only burn the time slice of the
/// thread it waits for. The static assignment is deliberate: a partition's
/// Simulator is touched by the same thread every window (so debug ownership
/// stays simple and thread-local frame-arena freelists keep their hit rate),
/// and it needs no work-stealing atomics on the dispatch path. Each run() is
/// a barrier: it returns only after every lane's job finished. Jobs that
/// throw abandon the rest of that worker's shard; the first exception (by
/// worker rank) is rethrown on the coordinator after the barrier.
class LanePool {
 public:
  /// How long a waiter spins before it parks: about one window's work per
  /// worker on the 4096-node fat-tree, so a round's hand-off stays in user
  /// space while a partitioned run is busy and an idle pool sleeps.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// `workers` is resolved via resolve_workers; `workers - 1` threads are
  /// spawned (the coordinator contributes the remaining shard).
  explicit LanePool(unsigned workers);
  ~LanePool();

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Runs job(i) for every i in [0, lanes), lane i on worker (i mod
  /// workers). Blocks until all lanes finish. Not reentrant.
  void run(std::size_t lanes, const std::function<void(std::size_t)>& job);

 private:
  void worker_main(unsigned self);
  void run_shard(unsigned self) noexcept;

  unsigned workers_;
  bool spin_;  // workers_ fit the host's hardware threads
  // Round state: written by the coordinator before it bumps round_, read by
  // the helpers after they observe the bump.
  std::size_t lanes_ = 0;
  const std::function<void(std::size_t)>* job_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;  // slot per worker, first by rank rethrown
  // Each on its own cache line, so helpers retiring a round (outstanding_)
  // do not disturb helpers already polling for the next one (round_).
  alignas(64) std::atomic<std::uint32_t> round_{0};        // bumped per run()
  alignas(64) std::atomic<std::uint32_t> outstanding_{0};  // helpers still in the round
  std::vector<std::thread> threads_;  // after everything the helpers use
};

}  // namespace nicbar::sim::exec
