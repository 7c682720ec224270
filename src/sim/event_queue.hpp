// Pending-event set for the discrete-event engine.
//
// A binary min-heap keyed on (time, insertion order). The insertion order
// gives a total order, so two events scheduled for the same instant fire in
// the order they were scheduled — this determinism is what makes every
// experiment in the repository exactly reproducible.
//
// Hot-path layout: the heap holds 32-byte POD entries (time, the two
// same-instant order keys, slot handle and generation) that sift with
// trivial moves; the callable itself lives in a slot array and never moves
// during heap maintenance. Slots are recycled through a free list and carry
// a generation counter, so a stale EventId (already fired, cancelled, or
// cleared) can never touch a later event that happens to reuse its slot.
// Cancellation stays lazy and O(1): cancel() retires the slot (destroying
// the callable immediately) and the heap discards the dead entry when it
// surfaces — this matters because reliability retransmission timers are
// cancelled on (nearly) every acknowledgment. When dead entries pile up
// faster than pops retire them, schedule() compacts the heap in one O(n)
// pass so cancel-heavy workloads cannot grow the heap without bound.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

/// Opaque handle to a scheduled event; used only for cancellation. Packs a
/// slot index (low 32 bits, biased by one so a default-constructed id is
/// invalid) and that slot's generation (high 32 bits).
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Explicit same-instant ordering key for events whose relative order must
/// not depend on *when* they were inserted. Ordinary events at the same
/// timestamp fire in insertion order — fine for a single queue, but a
/// partitioned (PDES) run inserts cross-partition deliveries at window
/// barriers, long after the serial path would have inserted them, so
/// insertion order is no longer reproducible across engine configurations.
/// A keyed event instead fires in (time, k1, k2) order, where the caller
/// derives (k1, k2) from simulation content (for a link delivery: the
/// serialisation-finish time, the link's stable id, and a per-link sequence
/// number). Keyed events sort before all unkeyed events at the same instant,
/// and the caller must make (k1, k2) unique per (time). See sim/pdes.hpp.
struct EventKey {
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
};

class EventQueue {
 public:
  using Action = SmallFn;

  /// Schedules `action` at absolute time `at`. Returns a cancellation handle.
  EventId schedule(SimTime at, Action action);

  /// Schedules `action` at `at` with an explicit same-instant ordering key
  /// (see EventKey). `key.k1` must have its top bit clear.
  EventId schedule_keyed(SimTime at, EventKey key, Action action);

  /// Marks an event dead. Safe to call with an already-fired, cleared, or
  /// invalid id (it becomes a no-op). Returns true if the event was still
  /// pending; its callable is destroyed immediately.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] SimTime next_time();

  /// Removes and returns the earliest live event's action. Requires !empty().
  /// `fired_at` receives the event's timestamp.
  Action pop(SimTime& fired_at);

  /// Discards all pending events without running them. Outstanding EventIds
  /// are invalidated (cancelling them afterwards is a no-op).
  void clear();

  /// Total events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t total_scheduled() const { return scheduled_; }

  /// One element of a schedule_batch() call.
  struct BatchItem {
    SimTime at;
    EventKey key;
    Action action;
  };

  /// Schedules `items.size()` keyed events in one pass. Equivalent to
  /// calling schedule_keyed per item but amortises heap maintenance: when
  /// the batch is at least as large as the existing heap the queue rebuilds
  /// bottom-up in O(n + m) instead of m * O(log n) sift-ups. This is the
  /// partition-boundary fast path: a PDES window barrier drains every
  /// channel into the destination queue in one call.
  void schedule_batch(std::vector<BatchItem>& items);

 private:
  struct Slot {
    Action action;
    std::uint32_t gen = 0;    // bumped every time the slot's event dies
    std::uint32_t next_free;  // free-list link, valid while dead
    bool live = false;
  };
  struct HeapEntry {  // trivially copyable: sifts are plain moves
    std::int64_t at_ps;
    // Same-instant order: keyed events carry (k1, k2) from the caller with
    // k1's top bit clear; unkeyed events carry k1 = kUnkeyedBit | counter,
    // k2 = 0, so every keyed event at an instant precedes every unkeyed one
    // and unkeyed events keep their insertion order.
    std::uint64_t k1;
    std::uint64_t k2;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(HeapEntry) == 32, "two heap entries per 64-byte cache line");
  static constexpr std::uint32_t kNilSlot = UINT32_MAX;
  static constexpr std::uint64_t kUnkeyedBit = 1ULL << 63;

  [[nodiscard]] bool before(const HeapEntry& a, const HeapEntry& b) const {
    if (a.at_ps != b.at_ps) return a.at_ps < b.at_ps;
    if (a.k1 != b.k1) return a.k1 < b.k1;
    return a.k2 < b.k2;
  }
  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }

  EventId schedule_entry(SimTime at, std::uint64_t k1, std::uint64_t k2, Action action);
  std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_heap_top();
  void drop_dead_front();
  void compact();

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;       // live events (== live slots; heap_ may hold more)
  std::uint64_t next_order_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace nicbar::sim
