// The network fabric: terminals (NIC attachment points), switches, cables,
// and the topology's route function.
//
// Construction protocol:
//   1. add_terminal() for every NIC, add_switch() for every switch
//   2. connect_terminal() / connect_switches() to cable everything up
//   3. finalize(route) — installs the closed-form route function
//      (src, dst) -> Route that every topology builder supplies
//   4. set_deliver() on each terminal, then inject() packets
//
// The Network stores no routes: inject() asks the route function and copies
// the result into the packet, so routing is one lock-free path whether one
// engine or several PDES lanes inject. Every cable is full duplex and is
// modelled as two directed Links.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/xswitch.hpp"
#include "sim/pdes.hpp"
#include "sim/simulator.hpp"

namespace nicbar::net {

/// Assignment of every fabric element to a PDES partition. Terminals are
/// indexed by NodeId, switches by switch id; values are lane indices.
struct PartitionMap {
  std::vector<int> terminal_partition;
  std::vector<int> switch_partition;
};

class Network {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;

  explicit Network(sim::Simulator& sim, LinkParams link_params = {},
                   SwitchParams switch_params = {})
      : sim_(sim), link_params_(link_params), switch_params_(switch_params) {}

  // --- Construction ----------------------------------------------------------

  NodeId add_terminal();
  /// Throws std::invalid_argument for more than kMaxSwitchPorts ports: a
  /// wider switch has ports no route byte can name.
  int add_switch(std::size_t num_ports);
  void connect_terminal(NodeId terminal, int switch_id, std::size_t port);
  void connect_switches(int switch_a, std::size_t port_a, int switch_b, std::size_t port_b);

  /// The topology's closed-form routing: the switch output-port sequence
  /// from src to dst, terminal exit port included, for src != dst. Called
  /// concurrently by PDES lanes, so it must not mutate shared state.
  using RouteFn = std::function<Route(NodeId, NodeId)>;

  /// Installs the route function. Must follow all connect_* calls.
  void finalize(RouteFn route);

  // --- Use -------------------------------------------------------------------

  /// Sets `terminal`'s receiver; it takes ownership of each delivered
  /// packet handle (the one the sender injected).
  void set_deliver(NodeId terminal, DeliverFn fn);
  /// By-value receiver, for callers that only inspect packets (the unit
  /// tests): `fn` gets a copy, and the handle is recycled when it returns.
  void set_deliver(NodeId terminal, std::function<void(Packet)> fn) {
    set_deliver(terminal, DeliverFn([fn = std::move(fn)](PacketPtr p) { fn(*p); }));
  }

  /// Injects `p` from its src_node terminal, ready for the uplink at `at`
  /// (see Link::transmit): copies the route into it, stamps the id, then
  /// queues the handle on the terminal's uplink. Returns the time the
  /// sender's transmit channel frees up.
  sim::SimTime inject(PacketPtr p, sim::SimTime at);
  /// Injects a copy of `p`, ready now on the uplink's lane.
  sim::SimTime inject(const Packet& p) {
    return inject(make_packet(p), terminals_.at(p.src_node).up->sim().now());
  }

  /// The route (switch output ports) from src to dst; empty for src == dst.
  /// Throws std::out_of_range for an unknown dst, and std::logic_error when
  /// the topology has no route for the pair.
  [[nodiscard]] Route route(NodeId src, NodeId dst) const;

  /// Number of switch hops between two terminals.
  [[nodiscard]] std::size_t hop_count(NodeId src, NodeId dst) const {
    return route(src, dst).size();
  }

  /// The deterministic end-to-end wire time of an uncontended packet of
  /// `payload_bytes` from src to dst: per-link serialisation of the whole
  /// packet (Packet::wire_bytes) + propagation, plus per-switch routing
  /// latency, which is exactly when a lone packet arrives. This is the
  /// "Network" term of the paper's Eq. 1-2. Zero for same-node (loopback)
  /// traffic, which never touches the fabric.
  [[nodiscard]] sim::Duration path_time(NodeId src, NodeId dst,
                                        std::int64_t payload_bytes) const;

  /// Attaches (or detaches, with nullptr) a causal tracer to every link and
  /// switch in the fabric, and names them to it. Call after the topology is
  /// fully built.
  void set_causal(sim::causal::CausalTracer* causal);

  /// Reserves a fabric-unique packet id for traffic originating at `node`.
  /// NICs stamp ids at the SEND engine (before injection) so loopback
  /// packets share the same id space; inject() only stamps packets that
  /// don't have one yet. Ids are striped per node
  /// (seq * N + node + 1) rather than drawn from a global counter: each
  /// node allocates only from its own stripe, so the id of a packet depends
  /// only on that node's deterministic send order — never on how sends from
  /// different nodes (different PDES lanes) interleave in wall-clock time.
  [[nodiscard]] std::uint64_t allocate_packet_id(NodeId node) {
    return packet_seq_[node]++ * terminals_.size() + node + 1;
  }

  /// Binds every fabric element to its partition's lane and converts every
  /// link whose receiving end lives in a different partition than its
  /// transmitting end into a channel post (Link::set_remote_post). Call
  /// after the topology is fully built. Returns the minimum propagation
  /// delay among cross-partition links — the PDES lookahead — or
  /// Duration{0} when no link crosses a boundary.
  sim::Duration apply_partitioning(sim::pdes::PartitionedSimulator& pdes,
                                   const PartitionMap& map);

  // --- Introspection / fault injection ----------------------------------------

  [[nodiscard]] std::size_t terminal_count() const { return terminals_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] const LinkParams& link_params() const { return link_params_; }

  /// The directed link a terminal transmits on / receives from.
  [[nodiscard]] Link& uplink(NodeId terminal) { return *terminals_.at(terminal).up; }
  [[nodiscard]] Link& downlink(NodeId terminal) { return *terminals_.at(terminal).down; }

  [[nodiscard]] Switch& switch_at(int id) { return *switches_.at(static_cast<std::size_t>(id)); }

  /// Applies `fn` to every directed link in the fabric.
  void for_each_link(const std::function<void(Link&)>& fn) {
    for (auto& l : links_) fn(*l);
  }

  [[nodiscard]] std::uint64_t packets_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct Terminal {
    Link* up = nullptr;    // terminal -> first switch
    Link* down = nullptr;  // last switch -> terminal
    DeliverFn deliver;
  };

  /// One end of a directed link: a terminal (NodeId) or a switch (id).
  struct LinkEnd {
    bool is_switch = false;
    std::int64_t id = 0;
    [[nodiscard]] int partition(const PartitionMap& map) const {
      return is_switch ? map.switch_partition.at(static_cast<std::size_t>(id))
                       : map.terminal_partition.at(static_cast<std::size_t>(id));
    }
  };

  Link* new_link(std::string name, LinkEnd tail, LinkEnd head);

  sim::Simulator& sim_;
  LinkParams link_params_;
  SwitchParams switch_params_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Terminal> terminals_;
  RouteFn route_;
  bool finalized_ = false;
  std::atomic<std::uint64_t> injected_{0};  // bumped by every lane's sends
  std::vector<std::uint64_t> packet_seq_;   // per-node id stripes (one writer each)
  std::vector<LinkEnd> link_tail_;          // per link, transmitting element
  std::vector<LinkEnd> link_head_;          // per link, receiving element
};

}  // namespace nicbar::net
