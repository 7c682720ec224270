// Sparse per-peer connection storage.
//
// A barrier member only ever talks to O(log N) peers, so a dense array
// indexed by remote node id (4096 pointers per NIC at 4096 nodes) wastes
// memory. This table is a flat open-addressing index from remote id to a
// Connection that is its own allocation:
//   - one probe in the common case: linear probing over {key, pointer}
//     slots at a load of at most one half, so the lookup on the packet path
//     touches a single cache line before it reaches the Connection;
//   - references stay valid for the NIC's lifetime (firmware coroutines
//     hold `Connection&` across suspensions): growing the index moves the
//     owning pointers, never the Connections;
//   - nothing is allocated before the first contact;
//   - iteration is by ascending remote id, so crash/restart replay and the
//     closed-port flush visit peers in the same order whatever the contact
//     order was.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "nic/connection.hpp"

namespace nicbar::nic {

class ConnectionTable {
 public:
  using NodeId = net::NodeId;

  /// The connection to `remote`, allocating it on first contact.
  Connection& get_or_create(NodeId remote) {
    if (!slots_.empty()) {
      Slot& s = slots_[probe(remote)];
      if (s.conn) return *s.conn;
    }
    if (2 * (count_ + 1) > slots_.size()) grow();
    Slot& s = slots_[probe(remote)];
    s.key = remote;
    s.conn = std::make_unique<Connection>();
    ++count_;
    return *s.conn;
  }

  /// The connection to `remote`, or nullptr if never contacted.
  [[nodiscard]] Connection* find(NodeId remote) {
    return slots_.empty() ? nullptr : slots_[probe(remote)].conn.get();
  }
  [[nodiscard]] const Connection* find(NodeId remote) const {
    return slots_.empty() ? nullptr : slots_[probe(remote)].conn.get();
  }

  /// Applies `fn(remote, connection)` to every allocated connection in
  /// ascending remote-id order (deterministic regardless of contact order).
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::vector<std::pair<NodeId, Connection*>> peers;
    peers.reserve(count_);
    for (const Slot& s : slots_) {
      if (s.conn) peers.emplace_back(s.key, s.conn.get());
    }
    std::sort(peers.begin(), peers.end());
    for (const auto& [remote, c] : peers) fn(remote, *c);
  }

  [[nodiscard]] std::size_t allocated() const { return count_; }

  /// How many of the allocated connections hold reliability state.
  [[nodiscard]] std::size_t reliability_blocks() const {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.conn && s.conn->rel ? 1 : 0;
    return n;
  }

 private:
  struct Slot {
    NodeId key = 0;
    std::unique_ptr<Connection> conn;  // null: empty slot
  };

  /// Index of `remote`'s slot, or of the empty slot that ends its probe run.
  /// Fibonacci hashing spreads the XOR-patterned peer ids of PE and the
  /// strided ids of a fat-tree across the table's high bits.
  [[nodiscard]] std::size_t probe(NodeId remote) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (std::uint32_t{remote} * 0x9E3779B1u) >> shift_;
    while (slots_[i].conn && slots_[i].key != remote) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.empty() ? 8 : 2 * slots_.size()));
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (Slot& s : old) {
      if (s.conn) slots_[probe(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ = 32;      // 32 - log2(slots_.size())
  std::size_t count_ = 0;
};

}  // namespace nicbar::nic
