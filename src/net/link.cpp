#include "net/link.hpp"

#include <cassert>

#include "sim/causal.hpp"
#include "sim/check.hpp"

namespace nicbar::net {

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    down_since_ = sim_->now();
  } else {
    down_total_ += sim_->now() - down_since_;
  }
}

sim::Duration Link::down_time_total() const {
  if (!down_) return down_total_;
  return down_total_ + (sim_->now() - down_since_);
}

sim::SimTime Link::transmit(PacketPtr p) {
  assert(deliver_ && "link has no receiver attached");
  if (down_) {
    // Unplugged cable: the packet vanishes without even occupying the wire.
    ++dropped_;
    ++down_drops_;
    return sim_->now();
  }
  ++sent_;
  bytes_sent_ += p->wire_bytes(params_.header_bytes);
  bool drop = (drop_prob_ > 0.0 && rng_.chance(drop_prob_)) || (drop_pred_ && drop_pred_(*p));
  if (burst_enter_ > 0.0) {
    if (burst_bad_ ? burst_rng_.chance(burst_exit_) : burst_rng_.chance(burst_enter_)) {
      burst_bad_ = !burst_bad_;
    }
    const double loss = burst_bad_ ? burst_loss_bad_ : burst_loss_good_;
    if (loss > 0.0 && burst_rng_.chance(loss)) drop = true;
  }
  const sim::Duration occupy = wire_time(*p);
  if (drop) {
    ++dropped_;
    const sim::SimTime done = wire_.submit(occupy);
    if (trace_sink_ != nullptr) {
      trace_sink_->duration(trace_track_, "drop", done - occupy, occupy, "net",
                            sim::TraceCategory::kNet, p->id);
    }
    if (causal_ != nullptr) {
      // Terminal span: the packet's chain ends here; a retransmission starts
      // a fresh SEND span from the sender's stored record.
      causal_->record(sim::causal::Segment::kWire, p->dst_node, "wire_drop", done - occupy,
                      done, p->causal, 0, p->id);
    }
    // The wire is still burned for the packet's duration; nothing arrives.
    return done;
  }
  const sim::Duration prop = params_.propagation;
  if (corrupt_prob_ > 0.0 && corrupt_rng_.chance(corrupt_prob_)) {
    p->corrupted = true;
    ++corrupted_;
  }
  const sim::SimTime done = wire_.submit(occupy);
  if (trace_sink_ != nullptr) {
    trace_sink_->duration(trace_track_, to_string(p->type), done - occupy, occupy, "net",
                          sim::TraceCategory::kNet, p->id);
  }
  if (causal_ != nullptr) {
    // One span per directed hop, covering serialisation and propagation:
    // [done - occupy, done + prop]. Queueing behind earlier packets on this
    // wire shows up as the gap between the parent's end and done - occupy.
    p->causal = causal_->record(sim::causal::Segment::kWire, p->dst_node, "wire",
                                done - occupy, done + prop, p->causal, 0, p->id);
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
  NICBAR_CHECK(sent_ == delivered + (dropped_ - down_drops_) + in_flight, "net.link", now,
               "link '%s': sent=%llu != delivered=%llu + wire_drops=%llu + in_flight=%llu",
               name().c_str(), static_cast<unsigned long long>(sent_),
               static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(dropped_ - down_drops_),
               static_cast<unsigned long long>(in_flight));
  NICBAR_CHECK(in_flight == 0, "net.link", now,
               "link '%s': %llu packet(s) still in flight at quiescence", name().c_str(),
               static_cast<unsigned long long>(in_flight));
}

}  // namespace nicbar::net
