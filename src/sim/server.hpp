// Non-preemptive FIFO servers for callback-style (non-coroutine) hardware
// models.
//
//   BusyServer  — a device that services one job at a time, each occupying
//                 it for a caller-specified duration (a link, a DMA engine,
//                 a PCI bus). Jobs complete in submission order.
//   CycleServer — a BusyServer whose job costs are expressed in processor
//                 cycles at a configurable clock. This models the single
//                 LANai processor shared by the four MCP engines: all
//                 firmware handler costs are charged here, so halving the
//                 clock doubles exactly the NIC-resident component of every
//                 latency — the paper's LANai 4.3 vs 7.2 comparison.
//
// Both track utilisation statistics (busy time, jobs, total queueing delay).
// A job's completion callback is a move-only sim::SmallFn handed straight to
// the event queue, so a firmware job capturing a packet handle schedules
// without allocating.
//
// A job may be queued ahead of time with submit_at: the caller names the
// instant it becomes ready, and the server computes its start as
// max(ready, free_at) on the spot. That is exact only while ready instants
// never decrease from one job to the next, which the server checks: it holds
// for a link fed by one switch port or by one NIC's SEND jobs. A server with
// several submitters (the NIC processor, the PCI bus) is given each job at
// its ready instant (submit), or a later-ready job submitted early would
// take the FIFO slot of one that is ready sooner.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

class BusyServer {
 public:
  explicit BusyServer(Simulator& sim, std::string name = {})
      : sim_(&sim), name_(std::move(name)) {}

  /// Enqueues a job occupying the server for `service` time, ready now;
  /// `on_done` (may be null) runs when the job completes. Returns the
  /// completion time.
  SimTime submit(Duration service, SmallFn on_done = {}) {
    return submit_at(sim_->now(), service, std::move(on_done));
  }

  /// Enqueues a job that becomes ready at `ready`: at or after now, and at
  /// or after the previous job's ready instant, so that submission order is
  /// the order of the ready instants (both checked). Otherwise as submit.
  SimTime submit_at(SimTime ready, Duration service, SmallFn on_done = {}) {
    const SimTime now = sim_->now();
    NICBAR_CHECK(!service.is_negative(), "sim.server", now,
                 "server '%s': negative service time %lld ps", name_.c_str(),
                 static_cast<long long>(service.ps()));
    // A job queued ahead of one that is ready sooner would take its FIFO
    // slot: the wire order, stalls and queueing delay would all shift.
    NICBAR_CHECK(ready >= now && ready >= last_ready_, "sim.server", now,
                 "server '%s': job ready at %lld ps is queued before now or behind a job "
                 "ready at %lld ps",
                 name_.c_str(), static_cast<long long>(ready.ps()),
                 static_cast<long long>(last_ready_.ps()));
    last_ready_ = ready;
    const SimTime start = free_at_ > ready ? free_at_ : ready;
    // Mutual exclusion: the device serves one job at a time, in FIFO order.
    // A start before the previous job's completion (or before the job is
    // ready) would mean two jobs overlap on the bus/processor.
    NICBAR_CHECK(start >= free_at_ && start >= ready, "sim.server", now,
                 "server '%s': job would overlap previous occupancy "
                 "(start=%lld ps, free_at=%lld ps)",
                 name_.c_str(), static_cast<long long>(start.ps()),
                 static_cast<long long>(free_at_.ps()));
    if (start > ready) ++stalls_;  // job had to queue behind an earlier one
    queue_delay_total_ += start - ready;
    busy_total_ += service;
    free_at_ = start + service;
    ++jobs_;
    if (on_done) sim_->schedule_at(free_at_, std::move(on_done));
    return free_at_;
  }

  /// Re-points the server at another Simulator (PDES partitioning: fabric
  /// elements are constructed on the build lane, then bound to their
  /// partition's lane). Only legal while no simulation is running.
  void rebind_sim(Simulator& sim) { sim_ = &sim; }

  /// Completion time of the last submitted job (server idle before any job).
  [[nodiscard]] SimTime free_at() const { return free_at_; }
  /// Completion time a job of `service` would get if submitted now, so a
  /// caller can capture its own end time in the job it is about to submit.
  [[nodiscard]] SimTime next_completion(Duration service) const {
    const SimTime now = sim_->now();
    return (free_at_ > now ? free_at_ : now) + service;
  }
  [[nodiscard]] bool busy() const { return free_at_ > sim_->now(); }

  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }
  /// Jobs that found the server busy and had to queue (contention stalls).
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] Duration busy_total() const { return busy_total_; }
  [[nodiscard]] Duration queue_delay_total() const { return queue_delay_total_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Utilisation over [0, now].
  [[nodiscard]] double utilisation() const {
    const double t = static_cast<double>(sim_->now().ps());
    if (t <= 0) return 0.0;
    const double b = static_cast<double>(busy_total_.ps());
    return b > t ? 1.0 : b / t;
  }

 private:
  Simulator* sim_;
  std::string name_;
  SimTime free_at_{0};
  SimTime last_ready_{0};  // ready instant of the last job (see submit_at)
  std::uint64_t jobs_ = 0;
  std::uint64_t stalls_ = 0;
  Duration busy_total_{0};
  Duration queue_delay_total_{0};
};

class CycleServer {
 public:
  CycleServer(Simulator& sim, double clock_mhz, std::string name = {})
      : server_(sim, std::move(name)), clock_mhz_(clock_mhz) {}

  /// Enqueues a firmware job costing `cycles` processor cycles.
  SimTime submit_cycles(std::int64_t cycles, SmallFn on_done = {}) {
    return server_.submit(cycles_at_mhz(cycles, clock_mhz_), std::move(on_done));
  }

  [[nodiscard]] Duration cycles(std::int64_t n) const { return cycles_at_mhz(n, clock_mhz_); }
  [[nodiscard]] double clock_mhz() const { return clock_mhz_; }
  [[nodiscard]] const BusyServer& stats() const { return server_; }
  [[nodiscard]] SimTime free_at() const { return server_.free_at(); }

 private:
  BusyServer server_;
  double clock_mhz_;
};

}  // namespace nicbar::sim
