// Wire packet model.
//
// Myrinet is source-routed: the sending NIC prepends one routing byte per
// switch hop and each switch consumes its byte and forwards. A packet
// carries its own copy of the route (output-port indices) inline, plus a
// hop cursor, so it points at nothing in the fabric. Packets are trivially
// copyable values; on the simulated fabric they travel in a uniquely owned,
// recycled PacketPtr (see make_packet).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace nicbar::net {

using NodeId = std::uint16_t;
using PortId = std::uint8_t;  // GM communication endpoint index on a NIC (0..7)

constexpr NodeId kInvalidNode = 0xffff;

/// A route byte names a switch output port, so no switch can have more
/// ports than one byte addresses (Network::add_switch enforces it).
constexpr std::size_t kMaxSwitchPorts = 256;

/// A source route: the output port to take at each switch, the port of the
/// destination terminal last. Fixed-capacity and inline, so stamping a
/// packet copies a few bytes and the fabric keeps no route store. The
/// capacity is the longest route any builder makes: up, up, down, down and
/// out on a three-level folded Clos. A longer route is a builder bug and
/// throws; it is never truncated.
class Route {
 public:
  static constexpr std::size_t kMaxHops = 5;

  constexpr Route() = default;
  Route(std::initializer_list<std::uint8_t> ports) {
    if (ports.size() > kMaxHops) {
      throw std::length_error("a " + std::to_string(ports.size()) +
                              "-hop source route exceeds the " + std::to_string(kMaxHops) +
                              "-hop capacity");
    }
    std::copy(ports.begin(), ports.end(), ports_.begin());
    size_ = static_cast<std::uint8_t>(ports.size());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return ports_[i]; }
  [[nodiscard]] std::uint8_t front() const { return ports_[0]; }
  [[nodiscard]] const std::uint8_t* begin() const { return ports_.data(); }
  [[nodiscard]] const std::uint8_t* end() const { return ports_.data() + size_; }

  friend bool operator==(const Route& a, const Route& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<std::uint8_t, kMaxHops> ports_{};
  std::uint8_t size_ = 0;
};

enum class PacketType : std::uint8_t {
  kData,           // ordinary GM message payload
  kAck,            // cumulative acknowledgment for the connection stream
  kNack,           // negative ack: receiver expected a lower sequence number
  kBarrierPe,      // pairwise-exchange barrier message
  kBarrierGather,  // gather-and-broadcast barrier: gather phase
  kBarrierBcast,   // gather-and-broadcast barrier: broadcast phase
  kBarrierAck,     // ack for the separate barrier-reliability mechanism
  kBarrierNack,    // reject: barrier message arrived for a closed port
  kReduceUp,       // NIC-based reduction: partial value toward the root
  kReduceDown,     // NIC-based reduction: result broadcast down the tree
  kRmaPut,         // one-sided put into a registered remote segment
  kRmaGet,         // one-sided read request from a registered remote segment
  kRmaCas,         // one-sided compare-and-swap (applied by the NIC firmware)
  kRmaReply,       // remote completion / fetched value back to the initiator
};

[[nodiscard]] constexpr bool is_barrier_payload(PacketType t) {
  return t == PacketType::kBarrierPe || t == PacketType::kBarrierGather ||
         t == PacketType::kBarrierBcast;
}

/// NIC-resident collective payloads (barrier + reduction): handled entirely
/// by the firmware, never DMAed to a host receive buffer.
[[nodiscard]] constexpr bool is_collective_payload(PacketType t) {
  return is_barrier_payload(t) || t == PacketType::kReduceUp || t == PacketType::kReduceDown;
}

/// One-sided RMA payloads. Deliberately NOT collective payloads: they ride
/// the ordinary sequenced kData connection stream (per-(source,target)
/// in-order, exactly-once via duplicate suppression — the ordering guarantee
/// rma:: exposes), but like collectives they terminate in the NIC firmware
/// instead of a host receive buffer, so the no-receive-token NACK path must
/// exempt them.
[[nodiscard]] constexpr bool is_rma_payload(PacketType t) {
  return t == PacketType::kRmaPut || t == PacketType::kRmaGet || t == PacketType::kRmaCas ||
         t == PacketType::kRmaReply;
}

[[nodiscard]] constexpr bool is_control(PacketType t) {
  return t == PacketType::kAck || t == PacketType::kNack || t == PacketType::kBarrierAck ||
         t == PacketType::kBarrierNack;
}

[[nodiscard]] const char* to_string(PacketType t);

struct Packet {
  PacketType type = PacketType::kData;
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  PortId src_port = 0;
  PortId dst_port = 0;

  /// Connection-stream sequence number (kData, and barrier packets when the
  /// shared-stream reliability mode is on). 0 = unsequenced.
  std::uint32_t seq = 0;
  /// Cumulative ack value carried by kAck/kNack.
  std::uint32_t ack = 0;
  /// Separate barrier-mechanism sequence number (kBarrierAck et al.).
  std::uint32_t barrier_seq = 0;
  /// Identifies the barrier instance (epoch) a barrier packet belongs to.
  std::uint32_t barrier_epoch = 0;
  /// kBarrierNack: the type of the rejected barrier packet, so the sender
  /// knows what to resend.
  PacketType nacked_type = PacketType::kData;

  /// Barrier-group id the packet belongs to (collective payloads only).
  /// 0 = the legacy anonymous group: packets bypass slot admission entirely,
  /// which keeps pre-lifecycle timelines bit-identical. Non-zero ids are
  /// fabric-unique; a receiver without a live slot binding for (group,
  /// dst_port) fences the packet (counts it, never delivers it) — the stale
  /// traffic guard for destroyed groups.
  std::uint64_t group = 0;

  std::int64_t payload_bytes = 0;
  /// Opaque tag delivered with the message (tests use this for matching).
  std::uint64_t tag = 0;
  /// kReduceUp/kReduceDown: the (partial) reduction value.
  std::int64_t value = 0;
  /// Segmentation (kData): fragment index and count of the carried message.
  /// GM fragments messages larger than the MTU; the in-order connection
  /// stream guarantees fragments arrive consecutively per sender.
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int64_t message_bytes = 0;  // total size of the original message

  // One-sided RMA (kRmaPut/kRmaGet/kRmaCas/kRmaReply). The segment/index
  // pair addresses one 64-bit word of a registered segment; `value` above
  // doubles as the put payload, CAS desired value, and reply result.
  std::uint64_t rma_segment = 0;  // registration id at the target port
  std::uint64_t rma_index = 0;    // word offset within the segment
  std::uint64_t rma_op = 0;       // initiator-chosen op id echoed by kRmaReply
  std::int64_t rma_expected = 0;  // kRmaCas: the compare value
  /// kRmaReply: false when the target could not apply the op (segment never
  /// registered within the park budget, or index out of range).
  bool rma_ok = true;

  // Source route, stamped by Network::inject, plus the hop cursor.
  Route route;
  std::size_t hop = 0;

  sim::SimTime injected_at{0};  // set by the fabric when the packet enters
  std::uint64_t id = 0;         // unique per fabric, for tracing

  /// Causal provenance: the sim::causal span id of the latest span on this
  /// packet's dependency chain (the SEND-engine span at injection, then each
  /// wire/switch hop updates it in flight). 0 when causal tracing is off.
  std::uint64_t causal = 0;

  /// Fault injection flipped bits in flight. The fabric still delivers the
  /// packet (the wire does not know); the receiving NIC's CRC check catches
  /// it and discards after paying the full receive occupancy.
  bool corrupted = false;

  /// Bytes occupying the wire: header + the whole route + payload, on every
  /// link of the path (switches do not shorten the packet in this model).
  /// `header_bytes` models the GM packet header + CRC.
  [[nodiscard]] std::int64_t wire_bytes(std::int64_t header_bytes) const {
    return header_bytes + static_cast<std::int64_t>(route.size()) + payload_bytes;
  }
};

/// Returns a packet's storage to the releasing thread's free list.
struct PacketRecycler {
  void operator()(Packet* p) const noexcept;
};

/// Uniquely owned, recycled packet: the handle one packet's trip SEND ->
/// links/switches -> RECV -> firmware is carried in, moved from closure to
/// closure, so no stage copies or allocates. Free lists are thread_local
/// (lanes of a partitioned run never contend); a packet released on another
/// thread than it was taken on simply joins that thread's list.
using PacketPtr = std::unique_ptr<Packet, PacketRecycler>;

/// A recycled handle holding a copy of `p` (a blank packet by default).
/// Allocates only when the calling thread's free list is empty.
[[nodiscard]] PacketPtr make_packet(const Packet& p = Packet{});

}  // namespace nicbar::net
