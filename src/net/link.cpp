#include "net/link.hpp"

#include <algorithm>
#include <cassert>

#include "sim/causal.hpp"
#include "sim/check.hpp"

namespace nicbar::net {

void Link::add_down_window(sim::SimTime from, sim::SimTime until) {
  std::vector<DownWindow>& down = faults().down;
  if (until <= from) return;  // covers no instant
  // Merge every window that overlaps or touches [from, until) into it, so
  // the list stays the union: disjoint and sorted by time.
  auto first = std::lower_bound(down.begin(), down.end(), from,
                                [](const DownWindow& d, sim::SimTime t) { return d.until < t; });
  auto last = first;
  for (; last != down.end() && last->from <= until; ++last) {
    from = std::min(from, last->from);
    until = std::max(until, last->until);
  }
  down.insert(down.erase(first, last), DownWindow{from, until});
}

sim::Duration Link::down_time_total() const {
  sim::Duration total{0};
  if (faults_ == nullptr) return total;
  const sim::SimTime now = sim_->now();
  for (const DownWindow& d : faults_->down) {
    if (d.from >= now) break;
    total += std::min(d.until, now) - d.from;
  }
  return total;
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

sim::SimTime Link::transmit(PacketPtr p, sim::SimTime at) {
  assert(deliver_ && "link has no receiver attached");
  bool drop = false;
  if (faults_ != nullptr) {
    Faults& f = *faults_;
    if (f.down_at(at)) {
      // Unplugged cable: the packet vanishes without even occupying the wire.
      ++f.dropped;
      ++f.down_drops;
      return at;
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
    const sim::SimTime done = wire_.submit_at(at, occupy);
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
  const sim::SimTime done = wire_.submit_at(at, occupy);
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
    ++delivered_;
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
  const std::uint64_t wire_drops = packets_dropped() - drops_while_down();
  // Every packet serialised and not lost on the wire has one delivery event;
  // at quiescence each of them has fired, and none fired twice.
  NICBAR_CHECK(sent_ == delivered_ + wire_drops, "net.link", sim_->now(),
               "link '%s': sent=%llu != delivered=%llu + wire_drops=%llu at quiescence",
               name().c_str(), static_cast<unsigned long long>(sent_),
               static_cast<unsigned long long>(delivered_),
               static_cast<unsigned long long>(wire_drops));
}

}  // namespace nicbar::net
