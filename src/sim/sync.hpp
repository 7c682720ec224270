// Coroutine synchronization primitives for simulated processes.
//
//   Condition  — broadcast wakeup; any number of waiters, notify_all resumes
//                them all (at the current instant, in FIFO order).
//   Gate       — latch: once opened, waiters pass immediately (used for
//                "barrier completed" style notifications).
//   Mailbox<T> — unbounded FIFO channel; receivers suspend when empty.
//   Resource   — counted FIFO semaphore (models a bus, a CPU, a DMA engine
//                when used by coroutines).
//
// Mailbox and Resource keep their suspended waiters in a WaiterList: an
// intrusive FIFO threaded through the awaiters, which live in the suspended
// coroutine frames. An idle primitive therefore owns no heap memory, and a
// timed receive that expires unlinks itself in O(1).
//
// All wakeups go through Simulator::schedule_now rather than resuming
// inline. This keeps notify/send non-reentrant: state updates made by the
// notifier complete before any waiter observes them.
//
// Cross-partition handoff convention (PDES). Every primitive in this file —
// and every Simulator schedule_* call — is lane-local: it may only be touched
// by the thread that owns the element's Simulator (asserted in debug builds
// by Simulator::assert_owner). When a partitioned run needs to move an event
// across lanes (a packet leaving a link whose endpoint lives in another
// partition), the *sending* lane must NOT schedule into the destination
// Simulator. Instead it posts {deliver_at, EventKey, closure} to its own row
// of the PartitionedSimulator channel matrix (plain vector, no locks: one
// writer during the window). At the next window barrier the coordinator —
// which is the only thread running between windows — drains every channel
// into the destination lane's queue via EventQueue::schedule_batch. The
// conservative lookahead guarantees deliver_at lies at or beyond the next
// window's horizon, so the destination lane has not yet simulated past it;
// the pool's fork/join gives the happens-before edges that make the handoff
// race-free. The EventKey (serialisation-finish time, link id, per-link
// sequence) restores the exact pop order a single shared queue would have
// produced, which is what keeps serial and partitioned timelines
// bit-identical. See sim/pdes.hpp for the window loop itself.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace nicbar::sim {

/// Intrusive FIFO of suspended waiters. `Node` supplies `prev` and `next`
/// pointers; a node is linked from await_suspend until it is popped or
/// erased, and its awaiter stays at one address all that time.
template <typename Node>
class WaiterList {
 public:
  [[nodiscard]] bool empty() const { return head_ == nullptr; }

  void push_back(Node* n) {
    n->prev = tail_;
    n->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = n;
    tail_ = n;
  }

  /// Unlinks and returns the oldest waiter; the list must not be empty.
  Node* pop_front() {
    Node* n = head_;
    erase(n);
    return n;
  }

  /// Unlinks `n`, which must be linked here.
  void erase(Node* n) {
    (n->prev != nullptr ? n->prev->next : head_) = n->next;
    (n->next != nullptr ? n->next->prev : tail_) = n->prev;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

/// Broadcast wakeup. Waiters queue up; notify_all() releases every current
/// waiter (later waiters wait for the next notification).
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(sim) {}

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Condition& c;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { c.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() {
    std::vector<std::coroutine_handle<>> batch = std::move(waiters_);
    waiters_.clear();
    for (std::coroutine_handle<> h : batch) {
      sim_.schedule_now([h] { h.resume(); });
    }
  }

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One-way latch. Before open(): waiters suspend. After open(): waiters pass
/// straight through. open() releases everyone already waiting.
class Gate {
 public:
  explicit Gate(Simulator& sim) : sim_(sim) {}

  [[nodiscard]] bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    std::vector<std::coroutine_handle<>> batch = std::move(waiters_);
    waiters_.clear();
    for (std::coroutine_handle<> h : batch) {
      sim_.schedule_now([h] { h.resume(); });
    }
  }

  void reset() { open_ = false; }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& g;
      bool await_ready() const noexcept { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) { g.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator& sim_;
  bool open_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel carrying values of type T. send() never blocks;
/// recv() suspends while the channel is empty. Values are handed to waiting
/// receivers in FIFO order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(sim) {}

  void send(T value) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.pop_front();
      w->value.emplace(std::move(value));
      std::coroutine_handle<> h = w->handle;
      sim_.schedule_now([h] { h.resume(); });
      return;
    }
    queue_.push_back(std::move(value));
  }

  [[nodiscard]] auto recv() { return RecvAwaiter{*this}; }

  /// Receive with a timeout: yields std::nullopt if nothing arrives within
  /// `timeout` of simulated time (a non-positive timeout never suspends on
  /// an empty mailbox).
  [[nodiscard]] auto recv_for(Duration timeout) { return TimedRecvAwaiter{*this, timeout}; }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

 private:
  /// Common state send() fills in: both awaiter kinds register as this.
  struct Waiter {
    std::optional<T> value;
    std::coroutine_handle<> handle;
    Waiter* prev = nullptr;
    Waiter* next = nullptr;
  };

  struct RecvAwaiter : Waiter {
    Mailbox& mb;
    explicit RecvAwaiter(Mailbox& m) : mb(m) {}

    bool await_ready() {
      if (!mb.queue_.empty()) {
        this->value.emplace(std::move(mb.queue_.front()));
        mb.queue_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      mb.waiters_.push_back(this);
    }
    T await_resume() { return std::move(*this->value); }
  };

  struct TimedRecvAwaiter : Waiter {
    Mailbox& mb;
    Duration timeout;
    EventId timer;

    TimedRecvAwaiter(Mailbox& m, Duration t) : mb(m), timeout(t) {}

    bool await_ready() {
      if (!mb.queue_.empty()) {
        this->value.emplace(std::move(mb.queue_.front()));
        mb.queue_.pop_front();
        return true;
      }
      return timeout.ps() <= 0;  // already expired: resume with nullopt
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      mb.waiters_.push_back(this);
      timer = mb.sim_.schedule_in(timeout, [this] {
        // A send() at this same instant may have already claimed us (its
        // resume is queued behind this event); value set means it won.
        if (this->value.has_value()) return;
        mb.waiters_.erase(this);
        this->handle.resume();
      });
    }
    std::optional<T> await_resume() {
      mb.sim_.cancel(timer);
      return std::move(this->value);
    }
  };

  Simulator& sim_;
  Fifo<T> queue_;
  WaiterList<Waiter> waiters_;
};

/// Counted FIFO semaphore. acquire() suspends while all slots are taken;
/// release() hands a slot to the oldest waiter. Use ScopedHold for RAII.
class Resource {
  struct Awaiter;

 public:
  Resource(Simulator& sim, std::size_t capacity = 1) : sim_(sim), capacity_(capacity) {}

  [[nodiscard]] Awaiter acquire() { return Awaiter{*this}; }

  void release() {
    if (!waiters_.empty()) {
      // Hand the slot directly to the oldest waiter: in_use_ is unchanged,
      // so late acquirers cannot steal it before the waiter runs.
      std::coroutine_handle<> h = waiters_.pop_front()->handle;
      sim_.schedule_now([h] { h.resume(); });
      return;
    }
    if (in_use_ > 0) --in_use_;
  }

  /// Acquires, holds the resource for `d` of simulated time, releases.
  [[nodiscard]] Task use(Duration d) {
    co_await acquire();
    co_await sim_.delay(d);
    release();
  }

  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Awaiter {
    Resource& r;
    std::coroutine_handle<> handle{};
    Awaiter* prev = nullptr;
    Awaiter* next = nullptr;
    bool suspended = false;
    // Fresh acquirers may not jump the waiter queue.
    bool await_ready() const noexcept { return r.waiters_.empty() && r.in_use_ < r.capacity_; }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      handle = h;
      r.waiters_.push_back(this);
    }
    // A suspended waiter is resumed by release(), which transfers the slot
    // without ever decrementing in_use_; only the fast path claims one.
    void await_resume() const noexcept {
      if (!suspended) ++r.in_use_;
    }
  };

  Simulator& sim_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  WaiterList<Awaiter> waiters_;
};

}  // namespace nicbar::sim
