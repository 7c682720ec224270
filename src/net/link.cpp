#include "net/link.hpp"

#include <cassert>

#include "sim/causal.hpp"
#include "sim/check.hpp"

namespace nicbar::net {

void Link::set_down(bool down) {
  Faults& f = faults();
  if (down == f.down) return;
  f.down = down;
  if (down) {
    f.down_since = sim_->now();
  } else {
    f.down_total += sim_->now() - f.down_since;
  }
}

sim::Duration Link::down_time_total() const {
  if (faults_ == nullptr) return sim::Duration{0};
  if (!faults_->down) return faults_->down_total;
  return faults_->down_total + (sim_->now() - faults_->down_since);
}

bool Link::Faults::lose(const Packet& p) {
  bool drop = (drop_prob > 0.0 && rng.chance(drop_prob)) || (drop_pred && drop_pred(p));
  if (burst_enter > 0.0) {
    if (burst_bad ? burst_rng.chance(burst_exit) : burst_rng.chance(burst_enter)) {
      burst_bad = !burst_bad;
    }
    const double loss = burst_bad ? burst_loss_bad : burst_loss_good;
    if (loss > 0.0 && burst_rng.chance(loss)) drop = true;
  }
  return drop;
}

sim::SimTime Link::transmit(PacketPtr p) {
  assert(deliver_ && "link has no receiver attached");
  bool drop = false;
  if (faults_ != nullptr) {
    Faults& f = *faults_;
    if (f.down) {
      // Unplugged cable: the packet vanishes without even occupying the wire.
      ++f.dropped;
      ++f.down_drops;
      return sim_->now();
    }
    drop = f.lose(*p);
    if (drop) {
      ++f.dropped;
    } else if (f.corrupt_prob > 0.0 && f.corrupt_rng.chance(f.corrupt_prob)) {
      p->corrupted = true;
      ++f.corrupted;
    }
  }
  ++sent_;
  bytes_sent_ += p->wire_bytes(params_.header_bytes);
  const sim::Duration occupy = wire_time(*p);
  if (drop) {
    const sim::SimTime done = wire_.submit(occupy);
    if (causal_ != nullptr) {
      // Terminal span: the packet's chain ends here; a retransmission starts
      // a fresh SEND span from the sender's stored record.
      causal_->record({.seg = sim::causal::Segment::kWire, .res = sim::causal::Resource::kLink,
                       .node = p->dst_node, .label = "wire_drop", .start = done - occupy,
                       .end = done, .busy_end = done, .unit = uid_, .key = p->id},
                      p->causal);
    }
    // The wire is still burned for the packet's duration; nothing arrives.
    return done;
  }
  const sim::Duration prop = params_.propagation;
  const sim::SimTime done = wire_.submit(occupy);
  if (causal_ != nullptr) {
    // One span per directed hop, covering serialisation and propagation:
    // [done - occupy, done + prop]. Queueing behind earlier packets on this
    // wire shows up as the gap between the parent's end and done - occupy.
    p->causal = causal_->record(
        {.seg = sim::causal::Segment::kWire, .res = sim::causal::Resource::kLink,
         .node = p->dst_node, .label = "wire", .start = done - occupy, .end = done + prop,
         .busy_end = done, .unit = uid_, .key = p->id},
        p->causal);
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // Deliveries are *keyed*: at the arrival instant they fire in
  // (serialisation-finish, link uid, per-link sequence) order, a total order
  // derived purely from simulation content. A partitioned run inserts
  // cross-partition deliveries at window barriers — long after a shared
  // queue would have — so insertion order cannot be the tiebreak; with the
  // key, serial and partitioned runs pop identically (see sim/pdes.hpp).
  const sim::EventKey key{static_cast<std::uint64_t>(done.ps()),
                          (static_cast<std::uint64_t>(uid_) << 32) | delivery_seq_++};
  const sim::SimTime arrive = done + prop;
  sim::EventQueue::Action deliver = [this, p = std::move(p)]() mutable {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    deliver_(std::move(p));
  };
  if (remote_post_) {
    // Receiving end lives in another partition: hand off via the channel
    // matrix rather than scheduling into a foreign lane's queue.
    remote_post_(arrive, key, std::move(deliver));
  } else {
    sim_->schedule_at_keyed(arrive, key, std::move(deliver));
  }
  return done;
}

void Link::verify_conservation() const {
  const sim::SimTime now = sim_->now();
  const std::uint64_t delivered = delivered_.load(std::memory_order_relaxed);
  const std::uint64_t in_flight = in_flight_.load(std::memory_order_relaxed);
  const std::uint64_t wire_drops = packets_dropped() - drops_while_down();
  NICBAR_CHECK(sent_ == delivered + wire_drops + in_flight, "net.link", now,
               "link '%s': sent=%llu != delivered=%llu + wire_drops=%llu + in_flight=%llu",
               name().c_str(), static_cast<unsigned long long>(sent_),
               static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(wire_drops),
               static_cast<unsigned long long>(in_flight));
  NICBAR_CHECK(in_flight == 0, "net.link", now,
               "link '%s': %llu packet(s) still in flight at quiescence", name().c_str(),
               static_cast<unsigned long long>(in_flight));
}

}  // namespace nicbar::net
