// Crossbar switch with cut-through (wormhole-like) forwarding.
//
// Myrinet switches are source-routed crossbars: the head of a packet is
// examined, the leading route byte selects the output port, and the packet
// streams through with a small pipeline latency. We model that as a fixed
// per-hop routing latency followed by transmission on the chosen output
// link; output contention is captured by the link's FIFO wire server.
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
        port_down_(num_ports, false) {}

  /// Re-points the switch at the Simulator lane of its partition (PDES).
  /// Only legal before the simulation runs.
  void rebind_sim(sim::Simulator& sim) { sim_ = &sim; }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] std::size_t num_ports() const { return out_.size(); }

  /// Attaches the outgoing half of the cable plugged into `port`.
  void attach_out(std::size_t port, Link* link) { out_.at(port) = link; }

  [[nodiscard]] Link* out_link(std::size_t port) const { return out_.at(port); }

  /// A packet's head has arrived: consume the next route byte and forward
  /// the handle to the output link after the routing latency.
  void accept(PacketPtr p);

  /// Attaches a causal tracer: every forwarded packet gains a kSwitch span
  /// covering the routing latency. Nullptr detaches (default, zero-cost).
  void set_causal(sim::causal::CausalTracer* causal) { causal_ = causal; }

  /// Fault injection: a failed output port eats every packet routed to it
  /// (a stuck crossbar lane; the rest of the switch keeps forwarding).
  void set_port_down(std::size_t port, bool down) { port_down_.at(port) = down; }

  [[nodiscard]] std::uint64_t packets_forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t packets_misrouted() const { return misrouted_; }
  [[nodiscard]] std::uint64_t packets_dropped_port_down() const { return port_down_drops_; }

  /// Packet conservation: every accepted packet is forwarded, misrouted, or
  /// dropped on a failed port; at quiescence the routing pipeline is empty.
  void verify_conservation() const;

 private:
  sim::Simulator* sim_;
  int id_;
  SwitchParams params_;
  std::vector<Link*> out_;
  std::vector<bool> port_down_;
  std::uint64_t accepted_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t port_down_drops_ = 0;
  std::uint64_t in_pipeline_ = 0;
  sim::causal::CausalTracer* causal_ = nullptr;
};

}  // namespace nicbar::net
