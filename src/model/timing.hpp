// The paper's analytic timing model (§2.2, Fig. 2, Eq. 1-3) as one table of
// named cost terms. With R the rounds on the critical path:
//
//   Eq. 1:  T_host = R x (Send + SDMA + Network + Recv + RDMA + HRecv)
//   Eq. 2:  T_nic  = Send + R x (Network + Recv) + RDMA + HRecv
//   Eq. 3:  improvement = T_host / T_nic
//
// Each kTerms row is one cost of those chains in integer picoseconds,
// truncated per job as the simulator charges it, so a form's sum is exact in
// the contention-free regime. Rows also name the costs Eq. 1-2 leave out.
// sim::check::predict_barrier sums the rows, bench/critical_path slices them
// by causal segment, and bench/fig2_timing_model and `nicbar_run --predict`
// group them by phase (explain()). The costs read config structs and
// sim::cycles_at_mhz/transfer_time only, never simulator code, so the oracle
// stays independent of the simulator it checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "coll/barrier.hpp"
#include "gm/config.hpp"
#include "net/link.hpp"
#include "net/xswitch.hpp"
#include "nic/config.hpp"
#include "sim/causal.hpp"

namespace nicbar::model {

/// What a term's cost reads.
struct Inputs {
  const nic::NicConfig& nic;
  const gm::GmConfig& gm;
  const net::LinkParams& link;
  const net::SwitchParams& sw;
};

/// The chains a term belongs to, as bits: every message of a host barrier
/// (Eq. 1, host PE and GB), and the NIC barrier (Eq. 2) under its PE or GB
/// firmware handler or both.
enum Chain : std::uint8_t { kHostMessage = 1, kNicPe = 2, kNicGb = 4, kNicBarrier = 6, kAll = 7 };

/// A term's Fig. 2 phase, or kOmitted for a cost Eq. 1-2 leave out.
enum class Phase : std::uint8_t { kSend, kSdma, kNetwork, kRecv, kRdma, kHrecv, kOmitted };
inline constexpr std::string_view kPhaseNames[] = {"Send", "SDMA", "Network",
                                                   "Recv", "RDMA", "HRecv"};

struct Term {
  std::string_view name;
  std::uint8_t chains;  // Chain bits
  bool per_round;       // in a NIC barrier, else once; a host barrier repeats every term
  Phase phase;
  sim::causal::Segment segment;
  bool causal;  // on the span chain sim::causal traces
  sim::Duration (*cost)(const Inputs&);
};

namespace detail {
inline sim::Duration cyc(const Inputs& in, std::int64_t n) {
  return sim::cycles_at_mhz(n, in.nic.clock_mhz);
}
/// One PCI crossing of a barrier-sized payload: bus setup + transfer.
inline sim::Duration pci(const Inputs& in) {
  return in.nic.pci_setup + sim::transfer_time(in.nic.barrier_payload_bytes,
                                               in.nic.pci_bandwidth_mbps);
}
}  // namespace detail

using sim::causal::Segment;

/// Every cost once, in chain order (so each chain's phases run in order).
inline constexpr Term kTerms[] = {
    // Re-posting the receive (or barrier) buffer the last message consumed:
    // it precedes the next send (or post) but is no span's parent.
    {"host_provide", kAll, false, Phase::kOmitted, Segment::kHost, false,
     [](const Inputs& in) { return in.gm.host_provide_overhead; }},
    {"host_send", kHostMessage, true, Phase::kSend, Segment::kHost, true,
     [](const Inputs& in) { return in.gm.host_send_overhead + in.gm.layer_overhead; }},
    {"host_barrier", kNicBarrier, false, Phase::kSend, Segment::kHost, true,
     [](const Inputs& in) { return in.gm.host_barrier_overhead + in.gm.layer_overhead; }},
    {"sdma_detect", kAll, false, Phase::kSend, Segment::kSdma, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.sdma_detect_cycles); }},
    {"sdma", kHostMessage, true, Phase::kSdma, Segment::kSdma, true,  // DMA in + prep
     [](const Inputs& in) {
       return detail::cyc(in, in.nic.sdma_setup_cycles) + detail::pci(in) +
              detail::cyc(in, in.nic.sdma_prepare_cycles);
     }},
    {"barrier_init", kNicPe, false, Phase::kOmitted, Segment::kFirmware, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.barrier_init_cycles); }},
    {"barrier_init", kNicGb, false, Phase::kOmitted, Segment::kFirmware, true,  // + GB set-up
     [](const Inputs& in) {
       return detail::cyc(in, in.nic.barrier_init_cycles + in.nic.barrier_gb_init_cycles);
     }},
    {"send", kHostMessage, true, Phase::kNetwork, Segment::kSend, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.send_cycles); }},
    {"barrier_send", kNicBarrier, true, Phase::kNetwork, Segment::kSend, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.barrier_send_cycles); }},
    // Up- and downlink through the one switch, each serialising the header,
    // the one-byte source route (carried on every hop) and the payload.
    {"wire", kAll, true, Phase::kNetwork, Segment::kWire, true,
     [](const Inputs& in) {
       const std::int64_t bytes = in.link.header_bytes + 1 + in.nic.barrier_payload_bytes;
       return 2 * (sim::transfer_time(bytes, in.link.bandwidth_mbps) + in.link.propagation);
     }},
    {"switch", kAll, true, Phase::kNetwork, Segment::kSwitch, true,
     [](const Inputs& in) { return in.sw.routing_latency; }},
    {"recv", kAll, true, Phase::kRecv, Segment::kRecv, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.recv_cycles); }},
    {"barrier_pe", kNicPe, true, Phase::kRecv, Segment::kFirmware, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.barrier_pe_cycles); }},
    {"barrier_gb", kNicGb, true, Phase::kRecv, Segment::kFirmware, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.barrier_gb_cycles); }},
    // The reliable stream's ack, queued on the processor before the RDMA job.
    {"ack_tx", kHostMessage, true, Phase::kOmitted, Segment::kSend, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.send_cycles); }},
    {"rdma", kAll, false, Phase::kRdma, Segment::kRdma, true,
     [](const Inputs& in) { return detail::cyc(in, in.nic.rdma_setup_cycles) + detail::pci(in); }},
    {"host_recv", kAll, false, Phase::kHrecv, Segment::kHost, true,
     [](const Inputs& in) { return in.gm.host_recv_overhead + in.gm.layer_overhead; }},
};

/// One closed form: a 2001 family (host or NIC, PE or GB) at a group size.
struct Form {
  coll::Location location;
  nic::BarrierAlgorithm algorithm;
  std::size_t rounds;  // R: PE exchanges or GB tree hops on the critical path
};

/// PE exchange rounds on the critical path: log2(N) for a power of two, more
/// where the fold's skew compounds (see timing.cpp).
[[nodiscard]] std::size_t pe_critical_rounds(std::size_t nodes);

/// The closed form of `spec`'s location and algorithm at `nodes` members;
/// GB runs its gather and broadcast through a tree of spec.gb_dimension.
[[nodiscard]] Form form(const coll::BarrierSpec& spec, std::size_t nodes);

/// What `term` adds to `f`: its cost, R times when per round; zero when the
/// form does not charge it.
[[nodiscard]] sim::Duration charge(const Form& f, const Term& term, const Inputs& in);

/// A form's total split as the paper states it: the phases Eq. 1-2 charge
/// and the named terms they omit.
struct Sum {
  sim::Duration paper{0};
  sim::Duration omitted{0};
  [[nodiscard]] sim::Duration exact() const { return paper + omitted; }
};
[[nodiscard]] Sum sum(const Form& f, const Inputs& in);

/// Two indented lines: Eq. 1 or 2 in the paper's form with each phase's
/// cost, then the terms it omits by name.
[[nodiscard]] std::string explain(const Form& f, const Inputs& in);

}  // namespace nicbar::model
