// Runtime invariant checking for the simulation engine and the models built
// on it.
//
// NICBAR_CHECK(cond, subsystem, when, fmt, ...) is an always-on (but
// compile-time removable) assertion: when `cond` is false it throws
// InvariantViolation carrying the subsystem name, the simulated time of the
// violation, the failed condition text, and a printf-formatted detail string
// — enough trace context to pinpoint the offending event without a debugger.
// Unlike assert(), violations fire in Release builds too, where all the
// figure benches and soak runs happen.
//
// Toggles:
//   - compile time: configure with -DNICBAR_DISABLE_INVARIANTS=ON (defines
//     the macro away entirely; zero residual cost).
//   - run time: check::set_enabled(false) suppresses checks on the calling
//     thread (thread-local, because parallel sweeps run one Simulator per
//     worker thread and must not observe each other's toggles).
//
// The BarrierSafetyMonitor at the bottom is the barrier-semantics leg: it
// asserts that no member's k-th barrier completion is observed before every
// member has entered its k-th barrier — the defining safety property of a
// barrier, checked over the host-visible arrive/complete events.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace nicbar::sim::check {

/// Thrown by NICBAR_CHECK on a failed invariant. What/where/when are all
/// carried as structured fields; what() combines them into one line.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string subsystem, SimTime when, std::string condition,
                     std::string detail);

  /// Which layer tripped ("sim.queue", "sim.server", "net.link", ...).
  [[nodiscard]] const std::string& subsystem() const { return subsystem_; }
  /// Simulated time at which the violation was detected.
  [[nodiscard]] SimTime when() const { return when_; }
  /// The failed condition, as source text.
  [[nodiscard]] const std::string& condition() const { return condition_; }
  /// Formatted trace context supplied at the check site.
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string subsystem_;
  std::string condition_;
  std::string detail_;
  SimTime when_;
};

/// Whether checks are active on this thread (default: true).
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// RAII suppression, for tests that deliberately build broken states.
class Disabled {
 public:
  Disabled() : prev_(enabled()) { set_enabled(false); }
  ~Disabled() { set_enabled(prev_); }
  Disabled(const Disabled&) = delete;
  Disabled& operator=(const Disabled&) = delete;

 private:
  bool prev_;
};

/// printf-style formatting into a std::string (used by NICBAR_CHECK; only
/// evaluated when the condition has already failed).
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Throws InvariantViolation; out-of-line so check sites stay small.
[[noreturn]] void fail(const char* subsystem, SimTime when, const char* condition,
                       std::string detail);

}  // namespace nicbar::sim::check

#if defined(NICBAR_DISABLE_INVARIANTS)
#define NICBAR_CHECK(cond, subsystem, when, ...) \
  do {                                           \
  } while (0)
#else
/// Asserts `cond`; on failure throws check::InvariantViolation carrying
/// `subsystem`, the simulated time `when`, the condition text, and the
/// printf-formatted trace context from the remaining arguments.
#define NICBAR_CHECK(cond, subsystem, when, ...)                           \
  do {                                                                     \
    if (::nicbar::sim::check::enabled() && !(cond)) {                      \
      ::nicbar::sim::check::fail(subsystem, when, #cond,                   \
                                 ::nicbar::sim::check::format(__VA_ARGS__)); \
    }                                                                      \
  } while (0)
#endif

namespace nicbar::sim::check {

/// Host-visible barrier-safety oracle: one instance watches one group of
/// `members` processes running consecutive barriers. Each process reports
/// arrive() when it enters its next barrier and complete() when the matching
/// completion reaches it. The monitor asserts the safety property — a
/// member's k-th completion may only be observed once every member has
/// arrived at barrier k — and, by counting, that completions per member are
/// monotone (no duplicated or skipped epochs at host level).
///
/// Feeding complete() without the corresponding arrive()s is the test hook
/// for verifying violation reporting end to end.
class BarrierSafetyMonitor {
 public:
  explicit BarrierSafetyMonitor(std::size_t members)
      : arrivals_(members), completions_(members) {}

  /// Member `m` entered its next barrier at simulated time `when`.
  void arrive(std::size_t m, SimTime when);

  /// Member `m` observed its next barrier completion at `when`. Throws
  /// InvariantViolation if any member has not yet arrived at that barrier.
  /// O(1) amortised: a cached floor of the arrival counts answers most
  /// calls; only a barrier index above the floor rescans all members.
  void complete(std::size_t m, SimTime when);

  [[nodiscard]] std::size_t members() const { return arrivals_.size(); }
  [[nodiscard]] std::uint64_t arrivals(std::size_t m) const {
    return arrivals_.at(m).load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completions(std::size_t m) const {
    return completions_.at(m).load(std::memory_order_relaxed);
  }
  /// Barriers whose completion has been observed by at least one member.
  [[nodiscard]] std::uint64_t barriers_checked() const {
    return barriers_checked_.load(std::memory_order_relaxed);
  }

 private:
  // Atomic so one monitor can watch members spread across PDES lanes.
  // Relaxed suffices: a completion is causally downstream of every arrival
  // it checks (the barrier packets carried the dependency), and any
  // cross-lane dependency passes a window barrier whose fork/join edges
  // publish the arrival counts before the completing lane runs.
  std::vector<std::atomic<std::uint64_t>> arrivals_;
  std::vector<std::atomic<std::uint64_t>> completions_;
  std::atomic<std::uint64_t> barriers_checked_{0};
  // Monotone lower bound on every member's arrival count (raised only by a
  // full rescan); a completion of barrier k <= floor needs no scan.
  std::atomic<std::uint64_t> arrival_floor_{0};
};

}  // namespace nicbar::sim::check
