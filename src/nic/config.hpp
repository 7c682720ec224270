// NIC hardware/firmware cost model.
//
// All firmware handler costs are in *NIC processor cycles*, charged on the
// single CycleServer that models the LANai processor shared by the four MCP
// engines (SDMA, SEND, RECV, RDMA). Expressing costs in cycles — rather than
// time — is what makes the paper's LANai 4.3 (33 MHz) vs LANai 7.2 (66 MHz)
// comparison a one-knob experiment: doubling clock_mhz halves exactly the
// NIC-resident share of every latency.
//
// The default cycle counts are calibrated (see DESIGN.md §4) so that the
// derived message-phase times land in the paper's measured regime for
// LANai 4.3: Send ≈ 5.5 µs, SDMA ≈ 8.5 µs, Network ≈ 1 µs, Recv ≈ 17-20 µs,
// RDMA ≈ 6 µs, HRecv ≈ 4 µs, giving the paper's ≈ 182 µs host-based /
// ≈ 102 µs NIC-based 16-node pairwise-exchange barrier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace nicbar::nic {

/// How barrier packets are made reliable (paper §3.3 / §4.4).
enum class BarrierReliability : std::uint8_t {
  /// The paper's *measured* configuration: barrier packets carry no sequence
  /// number and are never retransmitted (fabric assumed lossless).
  kUnreliable,
  /// Barrier packets ride the connection's ordinary seq/ack stream, which
  /// preserves their order relative to data messages (§3.3 option 1).
  kSharedStream,
  /// A separate ack/seq/retransmit mechanism just for barrier messages
  /// (§3.3 option 2 — the mechanism the paper says it intends to complete).
  kSeparateAcks,
};

/// What the NIC does with a barrier message addressed to a closed port
/// (paper §3.2).
enum class ClosedPortPolicy : std::uint8_t {
  /// Naive: record normally; wipe records for a port when it opens. Loses
  /// legitimately-early messages (documented drawback in the paper).
  kClearOnOpen,
  /// Reject (NACK) messages for closed ports; the sender resends, possibly
  /// an unbounded number of times.
  kRejectClosed,
  /// The paper's adopted policy: record messages for closed ports, but on
  /// open flush those records with a NACK so each sender resends exactly
  /// once (if its initiating endpoint is still in that barrier).
  kRecordThenRejectOnOpen,
};

struct NicConfig {
  std::string model = "LANai-4.3";
  double clock_mhz = 33.0;

  // --- Firmware handler costs, in NIC processor cycles ---------------------
  std::int64_t sdma_detect_cycles = 100;    // poll loop notices a new send token
  std::int64_t sdma_setup_cycles = 185;     // program the host->NIC DMA
  std::int64_t sdma_prepare_cycles = 100;   // build the packet after the DMA
  std::int64_t send_cycles = 30;            // hand a prepared packet to the wire
  std::int64_t recv_cycles = 480;           // receive + verify an incoming packet
  std::int64_t recv_ack_cycles = 60;        // process an ack/nack
  std::int64_t rdma_setup_cycles = 170;     // program NIC->host DMA, token mgmt
  std::int64_t barrier_init_cycles = 150;   // accept a barrier send token
  std::int64_t barrier_pe_cycles = 90;      // PE bookkeeping per barrier message
  std::int64_t barrier_gb_cycles = 200;     // GB bookkeeping per barrier message
  /// Extra initiation cost for a GB barrier: the firmware walks the child
  /// list and builds its gather bookkeeping. This fixed cost is why the
  /// paper's NIC-GB loses to host-GB at N=2 but wins at N>=4.
  std::int64_t barrier_gb_init_cycles = 800;
  /// Initiation cost of a hierarchical token, charged *per parked schedule
  /// entry* (each child/peer/release endpoint plus the parent): copy the
  /// endpoint, clear its bit, link the bookkeeping — a few tens of LANai
  /// instructions. Proportional rather than GB's flat worst-case charge, so
  /// a leaf with two entries pays ~2us of initiation instead of ~24us; the
  /// flat-GB path keeps its calibrated constant untouched.
  std::int64_t barrier_hier_init_per_entry_cycles = 30;
  std::int64_t barrier_send_cycles = 60;    // prepare one outgoing barrier packet
  /// Per-copy SEND cost for a multidestination fan-out (§3.4/§7, Buntinas
  /// et al.'s multidestination messages): the hierarchical release is
  /// prepared once (full barrier_send_cycles on the first copy); each
  /// further replica only rewrites the route header and re-queues the same
  /// staged bytes.
  std::int64_t barrier_mcast_send_cycles = 20;

  // --- One-sided RMA firmware costs (the rma:: layer, src/rma/) -------------
  // RMA ops ride the ordinary sequenced connection stream but terminate in
  // firmware at the target: a put pays rma_put_cycles plus the NIC->host DMA
  // of its word; a get pays rma_get_cycles plus a host-memory read over PCI;
  // a CAS is the modeled on-NIC atomic — firmware cycles only, applied on
  // the single LANai processor (hence linearizable across initiators).
  std::int64_t rma_prepare_cycles = 100;    // SDMA: build an outgoing RMA packet
  std::int64_t rma_put_cycles = 120;        // target firmware: apply a put
  std::int64_t rma_get_cycles = 140;        // target firmware: serve a get
  std::int64_t rma_cas_cycles = 160;        // target firmware: on-NIC CAS
  std::int64_t rma_reply_cycles = 60;       // initiator firmware: absorb a reply

  /// Wire payload of an RMA packet (segment/index/word + op header).
  std::int64_t rma_payload_bytes = 16;

  /// Maximum payload per wire packet; larger messages are segmented by the
  /// SDMA engine and reassembled by RDMA (GM's MTU is 4 KB on Myrinet LAN).
  std::int64_t mtu_bytes = 4096;

  // --- Host interconnect (PCI) ----------------------------------------------
  double pci_bandwidth_mbps = 132.0;        // 32-bit/33 MHz PCI
  sim::Duration pci_setup = sim::nanoseconds(300);

  // --- Ports & buffers --------------------------------------------------------
  int max_ports = 8;                        // GM 1.2.3: eight ports per NIC

  /// NIC-resident barrier-state slots (paper §3: initialization/cleanup of
  /// barrier state is a hard design issue). Each *managed* barrier group
  /// holds one slot on every member NIC for its lifetime; allocation is
  /// rejected when all slots are in use, and the group falls back to a
  /// host-driven barrier (kOkDegraded). Legacy anonymous barriers (group id
  /// 0) do not consume slots.
  int barrier_slots = 8;

  // --- Reliability -------------------------------------------------------------
  /// Fixed retransmission timeout; with adaptive_rto it is only the initial
  /// RTO used before the first RTT sample arrives.
  sim::Duration retransmit_timeout = sim::milliseconds(1.0);
  /// Jacobson/Karels per-connection RTO estimation (srtt + 4·rttvar, Karn's
  /// rule for samples, exponential backoff on timeout). Off = the seed's
  /// fixed-timeout behaviour, bit-identical to before this knob existed.
  bool adaptive_rto = true;
  sim::Duration min_rto = sim::microseconds(50.0);
  sim::Duration max_rto = sim::milliseconds(16.0);
  sim::Duration barrier_resend_delay = sim::microseconds(50.0);
  /// Give-up threshold: after this many consecutive timeouts on one
  /// connection the peer is declared dead (kPeerDead is raised on every open
  /// port; see Nic::declare_peer_dead).
  int max_retransmissions = 64;

  // --- Barrier policy knobs ------------------------------------------------------
  BarrierReliability barrier_reliability = BarrierReliability::kUnreliable;
  ClosedPortPolicy closed_port_policy = ClosedPortPolicy::kRecordThenRejectOnOpen;
  /// §3.4 optimisation (future work in the paper): barrier messages between
  /// two ports of the *same* NIC skip the wire and just set the flag.
  bool barrier_loopback = false;

  /// Payload size of a barrier packet (identifies barrier id + epoch).
  std::int64_t barrier_payload_bytes = 8;

  [[nodiscard]] sim::Duration cycles(std::int64_t n) const {
    return sim::cycles_at_mhz(n, clock_mhz);
  }
};

/// The paper's 33 MHz LANai 4.3 testbed card.
[[nodiscard]] NicConfig lanai43();

/// The paper's 66 MHz LANai 7.2 card: identical firmware, double the clock,
/// and a 64-bit PCI interface.
[[nodiscard]] NicConfig lanai72();

/// Name tables (sim/names.hpp): `--nic`, `--reliability` and the workload
/// `nic` and `reliability` keys. The reliability table is indexed by the enum.
struct NicModel {
  std::string_view name;
  NicConfig (*make)();
};
inline constexpr NicModel kNicModels[] = {{"lanai43", &lanai43}, {"lanai72", &lanai72}};

/// The model name of `cfg` by its model string; a hand-built config reads
/// as the LANai 7.2 from 50 MHz up.
[[nodiscard]] std::string_view nic_model_name(const NicConfig& cfg);

struct ReliabilityName {
  BarrierReliability mode;
  std::string_view name;
};
inline constexpr ReliabilityName kReliabilityNames[] = {
    {BarrierReliability::kUnreliable, "unreliable"},
    {BarrierReliability::kSharedStream, "shared"},
    {BarrierReliability::kSeparateAcks, "separate"}};

}  // namespace nicbar::nic
