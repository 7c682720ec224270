// Per-remote-node connection state (paper §4.1: "The NIC also has data
// structures each corresponding to a connection to one node in the system").
//
// Carries the reliability stream (sequence numbers, the sent list awaiting
// acknowledgment, the retransmission timer) and the unexpected-barrier-
// message record of §3.1/§4.3: one bit per remote port — GM 1.2.3 allows
// eight ports per NIC, so the record is exactly one byte per connection, as
// the paper points out.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "net/packet.hpp"
#include "nic/tokens.hpp"
#include "sim/event_queue.hpp"

namespace nicbar::nic {

constexpr int kMaxPorts = 8;

/// Diagnostic sidecar for each unexpected-record bit. Real firmware keeps
/// only the bit; we additionally remember what set it so that the closed-
/// port policies (§3.2) and the tests can reason about it.
struct BarrierBitInfo {
  net::PacketType type = net::PacketType::kBarrierPe;
  std::uint32_t epoch = 0;
  PortId dst_port = 0;       // local port the message was addressed to
  bool for_closed_port = false;
  std::int64_t value = 0;    // kReduceUp/kReduceDown: the carried partial value
  /// Causal provenance of the recorded message (sim::causal span id), so the
  /// eventual consumer joins on the true arrival chain. 0 when tracing is off.
  std::uint64_t causal = 0;
};

/// A reliably-sent packet awaiting acknowledgment.
struct SentRecord {
  net::Packet packet;  // full copy, so retransmission can re-inject it
  std::function<void()> on_sent;  // host notification when acked (may be null)
  sim::SimTime first_sent{0};     // when the packet first hit the wire
  bool retransmitted = false;     // Karn's rule: ambiguous RTT, never sample
};

/// FIFO of sent records that allocates nothing until its first push.
/// libstdc++'s std::deque allocates a map and a node even when empty, and
/// most connections never queue anything: a 4096-node PE run opens 49 152
/// connections, all of them on the unreliable barrier path.
class SentList {
 public:
  using iterator = std::deque<SentRecord>::iterator;

  [[nodiscard]] bool empty() const { return q_ == nullptr || q_->empty(); }
  [[nodiscard]] std::size_t size() const { return q_ == nullptr ? 0 : q_->size(); }
  [[nodiscard]] SentRecord& front() { return q_->front(); }
  void push_back(SentRecord r) {
    if (q_ == nullptr) q_ = std::make_unique<std::deque<SentRecord>>();
    q_->push_back(std::move(r));
  }
  void pop_front() { q_->pop_front(); }
  void clear() {
    if (q_ != nullptr) q_->clear();
  }
  // Value-initialised deque iterators compare equal, so an unallocated list
  // iterates as empty.
  [[nodiscard]] iterator begin() { return q_ == nullptr ? iterator{} : q_->begin(); }
  [[nodiscard]] iterator end() { return q_ == nullptr ? iterator{} : q_->end(); }

 private:
  std::unique_ptr<std::deque<SentRecord>> q_;
};

struct Connection {
  // --- Reliability stream (data + shared-stream barrier packets) -----------
  std::uint32_t next_send_seq = 1;
  std::uint32_t next_expected_seq = 1;
  SentList sent_list;
  sim::EventId retransmit_timer;
  int retransmissions = 0;
  bool nack_outstanding = false;  // one NACK per out-of-order episode

  // --- Adaptive RTO (Jacobson/Karels; shared by both streams — same path) ---
  bool rtt_valid = false;   // srtt/rttvar hold at least one sample
  double srtt_ps = 0.0;     // smoothed RTT
  double rttvar_ps = 0.0;   // smoothed mean deviation
  double rtt_max_ps = 0.0;  // worst ack delay ever observed on this path
  int backoff = 0;          // consecutive timeouts; RTO doubles per timeout
  /// Peer declared dead after max_retransmissions consecutive timeouts.
  /// Permanent: reliable traffic to/from this node is dropped from then on.
  bool dead = false;

  // --- Separate barrier-reliability stream (BarrierReliability::kSeparateAcks)
  std::uint32_t next_barrier_send_seq = 1;
  std::uint32_t next_expected_barrier_seq = 1;
  SentList barrier_sent_list;
  sim::EventId barrier_retransmit_timer;
  int barrier_retransmissions = 0;
  bool barrier_nack_outstanding = false;

  // --- Unexpected barrier message record (§3.1) ------------------------------
  std::uint8_t barrier_bits = 0;  // bit i = message from remote port i recorded
  std::array<BarrierBitInfo, kMaxPorts> bit_info{};

  [[nodiscard]] bool bit(PortId remote_port) const {
    return (barrier_bits & (1u << remote_port)) != 0;
  }
  void set_bit(PortId remote_port, BarrierBitInfo info) {
    barrier_bits |= static_cast<std::uint8_t>(1u << remote_port);
    bit_info[remote_port] = info;
  }
  void clear_bit(PortId remote_port) {
    barrier_bits &= static_cast<std::uint8_t>(~(1u << remote_port));
  }
};

}  // namespace nicbar::nic
