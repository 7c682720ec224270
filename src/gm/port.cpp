#include "gm/port.hpp"

#include <stdexcept>
#include <utility>

namespace nicbar::gm {

Port::Port(sim::Simulator& sim, sim::Resource& host_cpu, nic::Nic& nic, nic::PortId id,
           GmConfig config)
    : sim_(sim), cpu_(host_cpu), nic_(nic), id_(id), config_(config), events_(sim) {}

Port::~Port() {
  if (open_) close();
}

void Port::open() {
  if (open_) throw std::logic_error("port already open");
  nic_.open_port(id_, &events_);
  open_ = true;
}

void Port::close() {
  if (!open_) return;
  nic_.close_port(id_);
  open_ = false;
}

sim::Task Port::send(Endpoint dst, std::int64_t bytes, std::uint64_t tag, std::int64_t value) {
  co_await cpu_.use(config_.host_send_overhead + config_.layer_overhead);
  nic::SendToken token;
  token.src_port = id_;
  token.dst = dst;
  token.bytes = bytes;
  token.tag = tag;
  token.value = value;
  nic_.post_send_token(std::move(token));
}

sim::Task Port::provide_receive_buffer(std::int64_t bytes) {
  co_await cpu_.use(config_.host_provide_overhead);
  nic_.post_receive_token(id_, nic::RecvToken{bytes});
}

sim::Task Port::multicast(std::vector<Endpoint> destinations, std::int64_t bytes,
                          std::uint64_t tag, std::int64_t value) {
  co_await cpu_.use(config_.host_send_overhead + config_.layer_overhead);
  nic::MulticastToken token;
  token.src_port = id_;
  token.destinations = std::move(destinations);
  token.bytes = bytes;
  token.tag = tag;
  token.value = value;
  nic_.post_multicast_token(std::move(token));
}

sim::ValueTask<GmEvent> Port::receive() {
  GmEvent ev = co_await events_.recv();
  co_await cpu_.use(config_.host_recv_overhead + config_.layer_overhead);
  note_event_received(ev);
  co_return ev;
}

sim::ValueTask<std::optional<GmEvent>> Port::receive_for(sim::Duration timeout) {
  std::optional<GmEvent> ev = co_await events_.recv_for(timeout);
  if (ev.has_value()) {
    co_await cpu_.use(config_.host_recv_overhead + config_.layer_overhead);
    note_event_received(*ev);
  }
  co_return ev;
}

sim::ValueTask<std::optional<GmEvent>> Port::poll() {
  co_await cpu_.use(config_.host_poll_overhead);
  std::optional<GmEvent> ev = events_.try_recv();
  if (ev.has_value()) {
    co_await cpu_.use(config_.host_recv_overhead + config_.layer_overhead);
    note_event_received(*ev);
  }
  co_return ev;
}

void Port::note_event_received(const GmEvent& ev) {
  auto* causal = nic_.causal_tracer();
  if (causal != nullptr && ev.type == GmEventType::kBarrierComplete && ev.causal != 0) {
    // Sink span of the barrier's dependency DAG: the HRecv (+Layer) term of
    // Eq. 1-2 — host CPU consuming the completion event.
    const sim::Duration host = config_.host_recv_overhead + config_.layer_overhead;
    const std::uint64_t sink = causal->record(
        {.seg = sim::causal::Segment::kHost, .res = sim::causal::Resource::kHost,
         .node = node(), .label = "host_recv", .start = sim_.now() - host, .end = sim_.now(),
         .busy_end = sim_.now()},
        ev.causal);
    causal->complete_barrier(node(), id_, ev.barrier_epoch, sink);
  }
}

sim::Task Port::post_rma(nic::RmaToken token) {
  co_await cpu_.use(config_.host_send_overhead + config_.layer_overhead);
  token.src_port = id_;
  nic_.post_rma_token(std::move(token));
}

sim::Task Port::provide_barrier_buffer() {
  co_await cpu_.use(config_.host_provide_overhead);
  nic_.provide_barrier_buffer(id_);
}

sim::Task Port::compute(sim::Duration d) { co_await cpu_.use(d); }

sim::ValueTask<Epoch> Port::reduce_send(nic::ReduceToken token) {
  co_await cpu_.use(config_.host_barrier_overhead + config_.layer_overhead);
  token.src_port = id_;
  token.epoch = next_epoch_++;
  const std::uint32_t epoch = token.epoch;
  nic_.post_reduce_token(std::move(token));
  co_return Epoch{epoch};
}

sim::ValueTask<Epoch> Port::barrier_send(nic::BarrierToken token) {
  const sim::SimTime t0 = sim_.now();
  co_await cpu_.use(config_.host_barrier_overhead + config_.layer_overhead);
  token.src_port = id_;
  token.epoch = next_epoch_++;
  const std::uint32_t epoch = token.epoch;
  if (auto* causal = nic_.causal_tracer()) {
    // Origin span of the barrier's dependency DAG: the Send (+Layer) term of
    // Eq. 1-2. Spans any host-CPU queueing as well (attributed to kHost). A
    // caller may pre-seed token.causal with a provenance span (the
    // hierarchical barrier's representative hand-off); it becomes this
    // origin's parent, chaining the phases into one DAG.
    token.causal = causal->record(
        {.seg = sim::causal::Segment::kHost, .res = sim::causal::Resource::kHost,
         .node = node(), .label = "barrier_post", .start = t0, .end = sim_.now(),
         .busy_end = sim_.now()},
        token.causal);
  }
  nic_.post_barrier_token(std::move(token));
  co_return Epoch{epoch};
}

}  // namespace nicbar::gm
