// Directed point-to-point link.
//
// Models one direction of a full-duplex Myrinet cable: packets occupy the
// wire for wire_bytes/bandwidth (serialisation), then arrive after the
// propagation delay. Serialisation is a FIFO BusyServer, so back-to-back
// packets queue — this is where output-port contention at a switch shows up.
//
// A packet is queued on the wire when it becomes known, with the instant it
// is ready for it: a switch queues its output link at head arrival, ready
// after the routing latency; a NIC queues its uplink with the SEND job,
// ready at the job's end. The link has one feeder whose ready instants never
// decrease (the wire server checks it), so its FIFO order, stalls and
// queueing delay are those of a transmit made at the ready instant, and one
// event (the delivery) per hop is all the engine schedules.
//
// Fault injection: a drop probability and/or an arbitrary drop predicate can
// be set per link; dropped packets consume wire time but are not delivered
// (as on real hardware, where a corrupted packet still burned the slot).
// Down windows are data on the link, read at each packet's ready instant.
// All fault state lives in one block that the first fault call allocates,
// so a link in a run without a fault plan carries a null pointer instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"

namespace nicbar::sim::causal {
class CausalTracer;
}

namespace nicbar::net {

struct LinkParams {
  double bandwidth_mbps = 160.0;               // 1.28 Gb/s Myrinet LAN
  sim::Duration propagation = sim::nanoseconds(100);
  std::int64_t header_bytes = 16;              // GM header + CRC
};

class Link {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;
  /// Cross-partition delivery hook: (arrival time, ordering key, delivery
  /// closure) is posted to the PDES channel matrix instead of this lane's
  /// queue. See sim/sync.hpp for the handoff convention.
  using RemotePostFn =
      std::function<void(sim::SimTime, sim::EventKey, sim::EventQueue::Action)>;

  Link(sim::Simulator& sim, LinkParams params, std::string name)
      : sim_(&sim), params_(params), wire_(sim, std::move(name)) {}

  /// Sets the receiver; must be called before any transmit. The receiver
  /// takes ownership of the delivered packet handle.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  /// By-value receiver, for callers that only inspect packets (the unit
  /// tests): `fn` gets a copy, and the handle is recycled when it returns.
  void set_deliver(std::function<void(Packet)> fn) {
    deliver_ = [fn = std::move(fn)](PacketPtr p) { fn(*p); };
  }

  /// Re-points the link (and its wire server) at the Simulator lane that
  /// owns its transmitting end. Only legal before the simulation runs.
  void rebind_sim(sim::Simulator& sim) {
    sim_ = &sim;
    wire_.rebind_sim(sim);
  }

  [[nodiscard]] sim::Simulator& sim() const { return *sim_; }

  /// Stable fabric-wide id (assigned by Network at construction); the
  /// second word of every delivery's ordering key, so two links finishing
  /// serialisation at the same picosecond still deliver in a fixed order.
  void set_uid(std::uint32_t uid) { uid_ = uid; }
  [[nodiscard]] std::uint32_t uid() const { return uid_; }

  /// Routes deliveries into another partition's lane via `fn` instead of
  /// scheduling locally. Set by Network::apply_partitioning for links whose
  /// receiving end lives in a different partition than the transmitting end.
  void set_remote_post(RemotePostFn fn) { remote_post_ = std::move(fn); }

  /// Queues `p` for transmission, ready for the wire at `at`: at or after
  /// now, and at or after the previous packet's `at`, which holds for a
  /// link's one feeder (the wire server checks both). The link's fault state
  /// is read at the ready instant. Returns the time serialisation finishes
  /// (the sender's transmit channel frees up); delivery happens one
  /// propagation delay later. The handle travels in the delivery event and
  /// is handed to the receiver; a dropped packet is recycled here.
  sim::SimTime transmit(PacketPtr p, sim::SimTime at);
  sim::SimTime transmit(const Packet& p) { return transmit(make_packet(p), sim_->now()); }

  /// Fault injection: drop each packet with probability `prob`.
  void set_drop_probability(double prob, std::uint64_t seed = 1) {
    Faults& f = faults();
    f.drop_prob = prob;
    f.rng.reseed(seed);
  }

  /// Fault injection: drop packets for which `pred` returns true (applied
  /// in addition to the probabilistic drop).
  void set_drop_predicate(std::function<bool(const Packet&)> pred) {
    faults().drop_pred = std::move(pred);
  }

  /// Fault injection: Gilbert–Elliott bursty loss. Each packet first
  /// advances a good/bad Markov chain, then drops with the current state's
  /// loss rate. Draws come from a dedicated stream so composing burst loss
  /// with uniform loss keeps both reproducible.
  void set_burst_loss(double p_enter_bad, double p_exit_bad, double loss_good, double loss_bad,
                      std::uint64_t seed) {
    Faults& f = faults();
    f.burst_enter = p_enter_bad;
    f.burst_exit = p_exit_bad;
    f.burst_loss_good = loss_good;
    f.burst_loss_bad = loss_bad;
    f.burst_bad = false;
    f.burst_rng.reseed(seed);
  }

  /// Fault injection: flip bits in each packet with probability `prob`. The
  /// packet is still delivered; the receiver's CRC check pays for and
  /// discards it (see Nic::rx_packet).
  void set_corrupt_probability(double prob, std::uint64_t seed) {
    Faults& f = faults();
    f.corrupt_prob = prob;
    f.corrupt_rng.reseed(seed);
  }

  /// Fault injection: the cable is unplugged during [from, until). A packet
  /// ready for the wire while the link is down vanishes instantly — nothing
  /// is serialised, nothing arrives. The link is down at t iff some window
  /// covers t: overlapping windows unite, in whatever order they are added.
  void add_down_window(sim::SimTime from, sim::SimTime until);

  /// Total time this link has spent down, up to now (open windows count).
  [[nodiscard]] sim::Duration down_time_total() const;

  [[nodiscard]] sim::Duration wire_time(const Packet& p) const {
    return sim::transfer_time(p.wire_bytes(params_.header_bytes), params_.bandwidth_mbps);
  }

  [[nodiscard]] const LinkParams& params() const { return params_; }
  [[nodiscard]] const sim::BusyServer& wire() const { return wire_; }
  [[nodiscard]] const std::string& name() const { return wire_.name(); }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return faults_ ? faults_->dropped : 0; }
  [[nodiscard]] std::uint64_t packets_corrupted() const {
    return faults_ ? faults_->corrupted : 0;
  }
  [[nodiscard]] std::uint64_t drops_while_down() const {
    return faults_ ? faults_->down_drops : 0;
  }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }

  /// Packet conservation: at quiescence every packet serialised onto the
  /// wire was delivered or dropped on it, so none is still in flight.
  /// Corrupted packets count as delivered (the receiver's CRC check discards
  /// them and pays the cost).
  void verify_conservation() const;

  /// Attaches a causal tracer: every transmission is a kWire span holding
  /// this link for its serialisation; a delivered packet's span runs on
  /// through propagation (so wire time is never mistaken for RECV-engine
  /// queueing). Nullptr detaches (default, zero-cost).
  void set_causal(sim::causal::CausalTracer* causal) { causal_ = causal; }

 private:
  /// [from, until) of a down window.
  struct DownWindow {
    sim::SimTime from;
    sim::SimTime until;
  };

  /// Every fault-injection setting, its random streams and its counters.
  struct Faults {
    double drop_prob = 0.0;
    std::function<bool(const Packet&)> drop_pred;
    sim::Rng rng{12345};
    // Gilbert–Elliott burst-loss chain (inactive until set_burst_loss).
    double burst_enter = 0.0;
    double burst_exit = 0.0;
    double burst_loss_good = 0.0;
    double burst_loss_bad = 1.0;
    bool burst_bad = false;
    sim::Rng burst_rng{12345};
    double corrupt_prob = 0.0;
    sim::Rng corrupt_rng{12345};
    std::vector<DownWindow> down;  // disjoint, sorted by time: the union
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t down_drops = 0;

    /// Draws whether `p` is lost: uniform loss, then the predicate, then
    /// one step of the burst chain.
    bool lose(const Packet& p);

    [[nodiscard]] bool down_at(sim::SimTime t) const {
      // The first window ending after t holds t iff it has begun.
      const auto w = std::upper_bound(
          down.begin(), down.end(), t,
          [](sim::SimTime x, const DownWindow& d) { return x < d.until; });
      return w != down.end() && w->from <= t;
    }
  };

  Faults& faults() {
    if (!faults_) faults_ = std::make_unique<Faults>();
    return *faults_;
  }

  sim::Simulator* sim_;
  LinkParams params_;
  sim::BusyServer wire_;
  DeliverFn deliver_;
  RemotePostFn remote_post_;
  std::uint32_t uid_ = 0;
  std::uint32_t delivery_seq_ = 0;  // per-link, deterministic by transmit order
  std::unique_ptr<Faults> faults_;  // null until the first fault call
  std::uint64_t sent_ = 0;
  // Counted by the delivery closure alone, which always runs on the
  // receiving end's lane (for a cross-partition link, concurrently with
  // transmits here, which never touch it); read after the run.
  std::uint64_t delivered_ = 0;
  std::int64_t bytes_sent_ = 0;
  sim::causal::CausalTracer* causal_ = nullptr;
};

}  // namespace nicbar::net
