// Declarative, deterministic fault plans.
//
// A FaultPlan is a pure description of everything that will go wrong during
// a run: scheduled link outages, NIC crashes and restarts, switch output-port
// failures, Gilbert–Elliott bursty loss, uniform i.i.d. loss, and payload
// corruption (delivered, then caught by the receiver's CRC check). The plan
// itself knows nothing about the network or NIC types — `host::Cluster` arms
// it at construction by translating each entry into hooks on `net::Link`,
// `net::Switch` and `nic::Nic`: link outages become data on the link, the
// other timed entries scheduled simulator events. Keeping the plan
// declarative makes fault scenarios serialisable (see parse_fault_plan),
// diffable, and — because every random draw comes from a seeded PCG stream
// per link — bit-reproducible.
//
// Links are matched by substring on their directed name ("t0->sw0",
// "sw0->t3", "sw0->sw1"); an empty pattern matches every link.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace nicbar::sim::fault {

/// Every link whose name contains `link` is dead in [from, until): a packet
/// ready for the wire in that span is discarded instantly (the cable is
/// unplugged — nothing is even serialised). `until` == SimTime::max() means
/// the link never comes back. A link reads its windows at the instant each
/// packet is ready for it (the end of the sender's SEND job, or of the
/// switch's routing latency). A window is data, not an event: it does not
/// keep a run going after its last packet.
struct LinkDownWindow {
  std::string link;  // substring match on the link name; empty = every link
  SimTime from{0};
  SimTime until = SimTime::max();
};

/// The NIC on `node` halts at `at`: its processor stops accepting packets in
/// either direction and all pending retransmit timers die with it. At
/// `restart_at` the firmware reboots and retransmits everything still
/// unacknowledged (connection state lives in host memory and survives, the
/// same argument the paper makes for host-resident barrier tokens).
/// `restart_at` == SimTime::max() means the node is gone for good.
struct NicCrash {
  std::uint32_t node = 0;
  SimTime at{0};
  SimTime restart_at = SimTime::max();
  /// Plan-file line the event came from (0 = built programmatically); used
  /// by arm-time validation to name the offending line.
  int line = 0;
};

/// Output port `port` of switch `switch_id` eats every packet whose head
/// reaches the switch during [from, until).
struct SwitchPortDown {
  std::size_t switch_id = 0;
  std::size_t port = 0;
  SimTime from{0};
  SimTime until = SimTime::max();
  /// Plan-file line the event came from (0 = built programmatically).
  int line = 0;
};

/// Gilbert–Elliott two-state loss: each packet advances a good/bad Markov
/// chain, then drops with the state's loss rate. Captures the bursty loss a
/// marginal cable or overheating SerDes produces, which i.i.d. loss cannot.
struct BurstLoss {
  std::string link;          // substring match; empty = every link
  double p_enter_bad = 0.0;  // P(good -> bad) per packet
  double p_exit_bad = 0.1;   // P(bad -> good) per packet
  double loss_good = 0.0;    // drop probability while good
  double loss_bad = 1.0;     // drop probability while bad
};

/// Each packet is delivered flipped with probability `prob`; the receiving
/// NIC burns its full RECV occupancy on the CRC check before discarding.
struct Corruption {
  std::string link;  // substring match; empty = every link
  double prob = 0.0;
};

/// Uniform i.i.d. loss on matching links (the seed-era `--loss` knob,
/// expressible in a plan so it composes with everything else).
struct UniformLoss {
  std::string link;  // substring match; empty = every link
  double prob = 0.0;
};

struct FaultPlan {
  std::vector<UniformLoss> loss;
  std::vector<BurstLoss> bursts;
  std::vector<Corruption> corruption;
  std::vector<LinkDownWindow> link_down;
  std::vector<NicCrash> nic_crashes;
  std::vector<SwitchPortDown> switch_ports_down;
  /// Base seed for every per-link RNG stream the plan arms. Each armed link
  /// derives its own stream (base + stable per-link counter), so adding a
  /// link to the topology does not perturb the draws on existing ones.
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const {
    return loss.empty() && bursts.empty() && corruption.empty() && link_down.empty() &&
           nic_crashes.empty() && switch_ports_down.empty();
  }
};

/// Parses the line-oriented fault-plan format used by `nicbar_run
/// --fault-plan`. Times are microseconds, probabilities are [0,1] fractions,
/// `*` as a link pattern means "every link", `-` as a restart time means
/// "never". Blank lines and `#` comments are ignored.
///
///   seed 7
///   loss 0.01 [link]
///   burst <p_enter> <p_exit> <loss_bad> [link]
///   corrupt 0.001 [link]
///   link-down <from_us> <until_us|-> [link]
///   nic-crash <node> <at_us> [restart_us|-]
///   switch-port-down <switch> <port> <from_us> <until_us|->
///
/// Windows may be listed in any order and may overlap: a link (or a switch
/// port) is down at t iff some `link-down` (`switch-port-down`) window
/// covers t, so overlapping windows unite.
///
/// Throws std::runtime_error naming the offending line on malformed input.
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);

/// Convenience: parse from a string (tests, inline scenarios).
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

}  // namespace nicbar::sim::fault
