#include "sim/exec.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace nicbar::sim::exec {

unsigned resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

void parallel_for(std::size_t count, unsigned workers,
                  const std::function<void(std::size_t)>& job) {
  workers = resolve_workers(workers);
  if (workers > count) workers = static_cast<unsigned>(count);

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `word` no longer holds `old` and returns its new value (an
/// acquire load). Spins for at most LanePool::kSpinBudget when `spin`, then
/// parks in std::atomic::wait until a notify.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word, std::uint32_t old,
                           bool spin) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  if (v != old) return v;
  if (spin) {
    const auto deadline = std::chrono::steady_clock::now() + LanePool::kSpinBudget;
    do {
      cpu_relax();
      v = word.load(std::memory_order_acquire);
      if (v != old) return v;
    } while (std::chrono::steady_clock::now() < deadline);
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

}  // namespace

LanePool::LanePool(unsigned workers)
    : workers_(resolve_workers(workers)),
      spin_(workers_ <= std::thread::hardware_concurrency()) {
  errors_.resize(workers_);
  threads_.reserve(workers_ > 0 ? workers_ - 1 : 0);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

LanePool::~LanePool() {
  // Every helper is between rounds here (run() returned), so the bump is the
  // only thing it can observe next.
  shutdown_ = true;
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void LanePool::run_shard(unsigned self) noexcept {
  // Static assignment: this worker owns lanes {self, self+W, self+2W, ...}.
  // A throwing lane abandons the rest of the shard; the round still reaches
  // its barrier so the coordinator can rethrow with every thread quiescent.
  // The error slot is this worker's alone, and the coordinator reads it only
  // after the round's acquire on outstanding_.
  try {
    for (std::size_t i = self; i < lanes_; i += workers_) (*job_)(i);
  } catch (...) {
    errors_[self] = std::current_exception();
  }
}

void LanePool::worker_main(unsigned self) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(round_, seen, spin_);
    if (shutdown_) return;
    run_shard(self);
    // The last helper out wakes the coordinator if it parked.
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) outstanding_.notify_one();
  }
}

void LanePool::run(std::size_t lanes, const std::function<void(std::size_t)>& job) {
  if (workers_ <= 1 || lanes <= 1) {
    // Inline: the serial baseline that parallel rounds are asserted
    // bit-identical against uses no thread machinery at all.
    for (std::size_t i = 0; i < lanes; ++i) job(i);
    return;
  }
  lanes_ = lanes;
  job_ = &job;
  outstanding_.store(workers_ - 1, std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  run_shard(0);  // the coordinator works its own shard instead of idling
  for (std::uint32_t left = workers_ - 1; left != 0;) {
    left = await_change(outstanding_, left, spin_);
  }
  job_ = nullptr;
  for (std::exception_ptr& e : errors_) {
    if (e) {
      std::exception_ptr first = std::exchange(e, nullptr);
      for (std::exception_ptr& rest : errors_) rest = nullptr;
      std::rethrow_exception(first);
    }
  }
}

}  // namespace nicbar::sim::exec
