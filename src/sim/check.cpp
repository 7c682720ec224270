#include "sim/check.hpp"

#include <cstdarg>
#include <cstdio>

namespace nicbar::sim::check {

namespace {

std::string one_line(const std::string& subsystem, SimTime when, const std::string& condition,
                     const std::string& detail) {
  std::string msg = "invariant violation [" + subsystem + "] at t=" + when.str() + ": " +
                    condition;
  if (!detail.empty()) msg += " — " + detail;
  return msg;
}

thread_local bool g_enabled = true;

}  // namespace

InvariantViolation::InvariantViolation(std::string subsystem, SimTime when,
                                       std::string condition, std::string detail)
    : std::logic_error(one_line(subsystem, when, condition, detail)),
      subsystem_(std::move(subsystem)),
      condition_(std::move(condition)),
      detail_(std::move(detail)),
      when_(when) {}

bool enabled() { return g_enabled; }

void set_enabled(bool on) { g_enabled = on; }

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

void fail(const char* subsystem, SimTime when, const char* condition, std::string detail) {
  throw InvariantViolation(subsystem, when, condition, std::move(detail));
}

void BarrierSafetyMonitor::arrive(std::size_t m, SimTime when) {
  (void)when;
  arrivals_.at(m).fetch_add(1, std::memory_order_relaxed);
}

void BarrierSafetyMonitor::complete(std::size_t m, SimTime when) {
  // the barrier being completed
  const std::uint64_t k = completions_.at(m).load(std::memory_order_relaxed) + 1;
  std::uint64_t floor = arrival_floor_.load(std::memory_order_relaxed);
  if (k > floor) {
    // The cached floor no longer proves every member arrived at barrier k:
    // rescan, checking each member in order (so the first straggler is the
    // one reported), and raise the floor to the minimum seen. Arrivals never
    // decrease, so any minimum ever observed stays a valid lower bound; the
    // CAS keeps the floor monotone when lanes rescan concurrently.
    std::uint64_t lowest = UINT64_MAX;
    for (std::size_t j = 0; j < arrivals_.size(); ++j) {
      const std::uint64_t a = arrivals_[j].load(std::memory_order_relaxed);
      NICBAR_CHECK(a >= k, "coll.barrier-safety", when,
                   "member %zu observed completion of barrier %llu before member %zu arrived "
                   "(arrivals=%llu)",
                   m, static_cast<unsigned long long>(k), j,
                   static_cast<unsigned long long>(a));
      if (a < lowest) lowest = a;
    }
    while (lowest > floor &&
           !arrival_floor_.compare_exchange_weak(floor, lowest, std::memory_order_relaxed)) {
    }
  }
  completions_[m].store(k, std::memory_order_relaxed);
  std::uint64_t cur = barriers_checked_.load(std::memory_order_relaxed);
  while (k > cur &&
         !barriers_checked_.compare_exchange_weak(cur, k, std::memory_order_relaxed)) {
  }
}

}  // namespace nicbar::sim::check
