// Crossbar switch with cut-through (wormhole-like) forwarding.
//
// Myrinet switches are source-routed crossbars: the head of a packet is
// examined, the leading route byte selects the output port, and the packet
// streams through with a small pipeline latency. We model that as a fixed
// per-hop routing latency followed by transmission on the chosen output
// link; output contention is captured by the link's FIFO wire server. The
// switch queues the packet on that link as its head arrives, ready after the
// routing latency: nothing else feeds the link, so the latency needs no
// event of its own.
//
// We do not model head-of-line wormhole blocking across switches: barrier
// packets are tens of bytes, the fabrics in the paper are one switch deep,
// and even the multi-switch scalability extension keeps links far from
// saturation, so store-through with output queueing is an accurate regime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace nicbar::net {

struct SwitchParams {
  sim::Duration routing_latency = sim::nanoseconds(300);
};

class Switch {
 public:
  Switch(sim::Simulator& sim, int id, std::size_t num_ports, SwitchParams params)
      : sim_(&sim), id_(id), params_(params), out_(num_ports, nullptr),
        port_outages_(num_ports, 0) {}

  /// Re-points the switch at the Simulator lane of its partition (PDES).
  /// Only legal before the simulation runs.
  void rebind_sim(sim::Simulator& sim) { sim_ = &sim; }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] std::size_t num_ports() const { return out_.size(); }

  /// Attaches the outgoing half of the cable plugged into `port`.
  void attach_out(std::size_t port, Link* link) { out_.at(port) = link; }

  [[nodiscard]] Link* out_link(std::size_t port) const { return out_.at(port); }

  /// A packet's head has arrived: consume the next route byte and queue the
  /// handle on the output link, ready after the routing latency.
  void accept(PacketPtr p);

  /// Attaches a causal tracer: every forwarded packet gains a kSwitch span
  /// covering the routing latency. Nullptr detaches (default, zero-cost).
  void set_causal(sim::causal::CausalTracer* causal) { causal_ = causal; }

  /// Fault injection: a failed output port eats every packet whose head
  /// arrives while it is down (a stuck crossbar lane; the rest of the switch
  /// keeps forwarding). Each outage window begins and ends once; the port is
  /// down while any window is open, so overlapping windows unite.
  void begin_port_outage(std::size_t port) { ++port_outages_.at(port); }
  void end_port_outage(std::size_t port) { --port_outages_.at(port); }

  [[nodiscard]] std::uint64_t packets_forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t packets_misrouted() const { return misrouted_; }
  [[nodiscard]] std::uint64_t packets_dropped_port_down() const { return port_down_drops_; }

  /// Packet conservation: every accepted packet is forwarded (queued on its
  /// output link at once), misrouted, or dropped on a failed port.
  void verify_conservation() const;

 private:
  sim::Simulator* sim_;
  int id_;
  SwitchParams params_;
  std::vector<Link*> out_;
  std::vector<std::uint32_t> port_outages_;  // open outage windows per port
  std::uint64_t accepted_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t port_down_drops_ = 0;
  sim::causal::CausalTracer* causal_ = nullptr;
};

}  // namespace nicbar::net
