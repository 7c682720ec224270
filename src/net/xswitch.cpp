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
  if (port_down_[port]) {
    ++port_down_drops_;
    return;
  }
  ++forwarded_;
  Link* link = out_[port];
  if (causal_ != nullptr) {
    // Routing is pipelined: the span spans the latency but holds nothing.
    p->causal = causal_->record(
        {.seg = sim::causal::Segment::kSwitch, .res = sim::causal::Resource::kSwitch,
         .node = p->dst_node, .label = "route", .start = sim_->now(),
         .end = sim_->now() + params_.routing_latency, .busy_end = sim_->now(),
         .unit = static_cast<std::uint32_t>(id_), .key = p->id},
        p->causal);
  }
  ++in_pipeline_;
  sim_->schedule_in(params_.routing_latency, [this, link, p = std::move(p)]() mutable {
    --in_pipeline_;
    link->transmit(std::move(p));
  });
}

void Switch::verify_conservation() const {
  const sim::SimTime now = sim_->now();
  NICBAR_CHECK(accepted_ == forwarded_ + misrouted_ + port_down_drops_, "net.switch", now,
               "switch %d: accepted=%llu != forwarded=%llu + misrouted=%llu + port_down=%llu",
               id_, static_cast<unsigned long long>(accepted_),
               static_cast<unsigned long long>(forwarded_),
               static_cast<unsigned long long>(misrouted_),
               static_cast<unsigned long long>(port_down_drops_));
  NICBAR_CHECK(in_pipeline_ == 0, "net.switch", now,
               "switch %d: %llu packet(s) still in the routing pipeline at quiescence", id_,
               static_cast<unsigned long long>(in_pipeline_));
}

}  // namespace nicbar::net
