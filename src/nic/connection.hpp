// Per-remote-node connection state (paper §4.1: "The NIC also has data
// structures each corresponding to a connection to one node in the system").
//
// A 4096-node run keeps about 49 000 connections live, so a Connection holds
// only what every connection uses (96 B, pinned by a test):
//   - the sequence numbers of the two reliability streams;
//   - the unexpected-barrier-message record of §3.1/§4.3: one bit per remote
//     port — GM 1.2.3 allows eight ports per NIC, so the record is exactly
//     one byte per connection, as the paper points out — with an 8-byte
//     BarrierBitInfo beside each bit;
//   - the dead flag.
// State a run does not use is not allocated (DESIGN.md "Memory layout"):
//   - the reliability state — sent lists, timers, retransmission counters,
//     NACK flags and the RTO estimator — sits behind one pointer that the
//     first reliable send (or the first out-of-order arrival) allocates.
//     The paper's unreliable barrier never allocates it;
//   - the reduce value and causal span id of a recorded message live in the
//     NIC's side table (RecordExtra), which only reduce packets and a causal
//     tracer write.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "nic/tokens.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"

namespace nicbar::nic {

constexpr int kMaxPorts = 8;

/// Sidecar for each unexpected-record bit. Real firmware keeps only the bit;
/// we also remember what set it, so that the closed-port policies (§3.2),
/// the GB/hier/reduce advance logic and the tests can reason about it.
struct BarrierBitInfo {
  std::uint32_t epoch = 0;
  net::PacketType type = net::PacketType::kBarrierPe;
  PortId dst_port = 0;  // local port the message was addressed to
  bool for_closed_port = false;
};

/// What a recorded message carries beyond its BarrierBitInfo, kept in the
/// NIC's side table only when a reduce packet or a causal tracer sets it.
struct RecordExtra {
  std::int64_t value = 0;     // kReduceUp/kReduceDown: the carried partial value
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

/// The cold half of a connection: everything go-back-N and the adaptive RTO
/// need. Allocated by Connection::reliability() on first use.
struct ConnectionReliability {
  // --- Ordinary stream (data, RMA and shared-stream barrier packets) --------
  sim::Fifo<SentRecord> sent_list;
  sim::EventId retransmit_timer;
  int retransmissions = 0;
  bool nack_outstanding = false;  // one NACK per out-of-order episode

  // --- Separate barrier stream (BarrierReliability::kSeparateAcks) ----------
  bool barrier_nack_outstanding = false;
  int barrier_retransmissions = 0;
  sim::Fifo<SentRecord> barrier_sent_list;
  sim::EventId barrier_retransmit_timer;

  // --- Adaptive RTO (Jacobson/Karels; shared by both streams — same path) ---
  bool rtt_valid = false;   // srtt/rttvar hold at least one sample
  int backoff = 0;          // consecutive timeouts; RTO doubles per timeout
  double srtt_ps = 0.0;     // smoothed RTT
  double rttvar_ps = 0.0;   // smoothed mean deviation
  double rtt_max_ps = 0.0;  // worst ack delay ever observed on this path
};

struct Connection {
  std::uint32_t next_send_seq = 1;
  std::uint32_t next_expected_seq = 1;
  std::uint32_t next_barrier_send_seq = 1;
  std::uint32_t next_expected_barrier_seq = 1;
  /// Null until the connection first needs reliability state.
  std::unique_ptr<ConnectionReliability> rel;
  /// Peer declared dead after max_retransmissions consecutive timeouts.
  /// Permanent: reliable traffic to/from this node is dropped from then on.
  bool dead = false;

  // --- Unexpected barrier message record (§3.1) ------------------------------
  std::uint8_t barrier_bits = 0;  // bit i = message from remote port i recorded
  std::array<BarrierBitInfo, kMaxPorts> bit_info{};

  /// The reliability state, allocated on first use.
  ConnectionReliability& reliability() {
    if (!rel) rel = std::make_unique<ConnectionReliability>();
    return *rel;
  }

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
