#include "net/xswitch.hpp"

#include "sim/causal.hpp"
#include "sim/check.hpp"

namespace nicbar::net {

void Switch::accept(PacketPtr p) {
  ++accepted_;
  if (p->hop >= p->route.size()) {
    ++misrouted_;  // ran out of route bytes: drop (would be a CRC error on hw)
    return;
  }
  const std::uint8_t port = p->route[p->hop++];
  if (port >= out_.size() || out_[port] == nullptr) {
    ++misrouted_;
    return;
  }
  if (port_outages_[port] > 0) {
    ++port_down_drops_;
    return;
  }
  ++forwarded_;
  const sim::SimTime now = sim_->now();
  const sim::SimTime ready = now + params_.routing_latency;
  if (causal_ != nullptr) {
    // Routing is pipelined: the span spans the latency but holds nothing.
    p->causal = causal_->record(
        {.seg = sim::causal::Segment::kSwitch, .res = sim::causal::Resource::kSwitch,
         .node = p->dst_node, .label = "route", .start = now, .end = ready, .busy_end = now,
         .unit = static_cast<std::uint32_t>(id_), .key = p->id},
        p->causal);
  }
  out_[port]->transmit(std::move(p), ready);
}

void Switch::verify_conservation() const {
  const sim::SimTime now = sim_->now();
  NICBAR_CHECK(accepted_ == forwarded_ + misrouted_ + port_down_drops_, "net.switch", now,
               "switch %d: accepted=%llu != forwarded=%llu + misrouted=%llu + port_down=%llu",
               id_, static_cast<unsigned long long>(accepted_),
               static_cast<unsigned long long>(forwarded_),
               static_cast<unsigned long long>(misrouted_),
               static_cast<unsigned long long>(port_down_drops_));
}

}  // namespace nicbar::net
