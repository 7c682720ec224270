// GM communication endpoint (host side).
//
// A Port is the process-visible handle of GM's OS-bypass endpoint (paper
// §4.1): tokens go down to the NIC, events come back up and are polled with
// receive(). All host CPU costs are charged on the node's host CPU resource,
// so co-located processes contend realistically.
//
// The two barrier additions of §5.2 are provide_barrier_buffer() and
// barrier_send() (gm_barrier_send_with_callback); completion arrives as a
// GmEventType::kBarrierComplete event.
#pragma once

#include <cstdint>
#include <optional>

#include "gm/config.hpp"
#include "gm/epoch.hpp"
#include "nic/nic.hpp"
#include "nic/tokens.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nicbar::gm {

using nic::Endpoint;
using nic::GmEvent;
using nic::GmEventType;

class Port {
 public:
  /// Does not open the port; call open() (or use Cluster::open_port).
  Port(sim::Simulator& sim, sim::Resource& host_cpu, nic::Nic& nic, nic::PortId id,
       GmConfig config);
  ~Port();

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  void open();
  void close();
  [[nodiscard]] bool is_open() const { return open_; }

  /// Sets the per-call cost of a software layer stacked on this port (e.g.
  /// an MPI progress engine). Applies to every subsequent send/receive/
  /// collective call — the Eq. 3 "additional programming layer" knob.
  void set_layer_overhead(sim::Duration d) { config_.layer_overhead = d; }

  [[nodiscard]] nic::PortId id() const { return id_; }
  [[nodiscard]] net::NodeId node() const { return nic_.node_id(); }
  [[nodiscard]] Endpoint endpoint() const { return Endpoint{node(), id_}; }
  [[nodiscard]] const GmConfig& config() const { return config_; }
  [[nodiscard]] nic::Nic& nic() { return nic_; }

  // --- Ordinary messaging -------------------------------------------------------

  /// gm_send_with_callback: asynchronous; returns once the token is posted.
  /// `value` is a 64-bit immediate carried with the message (delivered in
  /// GmEvent::value); host-based reductions use it for partial values.
  [[nodiscard]] sim::Task send(Endpoint dst, std::int64_t bytes, std::uint64_t tag = 0,
                               std::int64_t value = 0);

  /// gm_provide_receive_buffer: posts a pinned receive buffer.
  [[nodiscard]] sim::Task provide_receive_buffer(std::int64_t bytes);

  /// NIC-assisted multicast: one token, one host->NIC DMA, the NIC
  /// replicates to all `destinations` (payload must fit in one MTU).
  [[nodiscard]] sim::Task multicast(std::vector<Endpoint> destinations, std::int64_t bytes,
                                    std::uint64_t tag = 0, std::int64_t value = 0);

  /// Blocking gm_receive(): yields the next event (charges HRecv).
  [[nodiscard]] sim::ValueTask<GmEvent> receive();

  /// Blocking gm_receive() with a timeout: yields std::nullopt if no event
  /// arrives within `timeout` of simulated time. The HRecv cost is charged
  /// only when an event is actually returned.
  [[nodiscard]] sim::ValueTask<std::optional<GmEvent>> receive_for(sim::Duration timeout);

  /// Non-blocking gm_receive() poll: charges the poll cost; empty result if
  /// no event is pending (the fuzzy-barrier building block).
  [[nodiscard]] sim::ValueTask<std::optional<GmEvent>> poll();

  // --- NIC-based barrier additions (§5.2) ---------------------------------------

  /// gm_provide_barrier_buffer.
  [[nodiscard]] sim::Task provide_barrier_buffer();

  /// gm_barrier_send_with_callback: posts the barrier token; the epoch is
  /// assigned by the port. Returns the epoch used — the waiter filters stale
  /// completions with Epoch::matches(event.barrier_epoch).
  [[nodiscard]] sim::ValueTask<Epoch> barrier_send(nic::BarrierToken token);

  /// Posts a reduction token (NIC-based allreduce, the §8 extension); the
  /// epoch is assigned by the port. Returns the epoch used.
  [[nodiscard]] sim::ValueTask<Epoch> reduce_send(nic::ReduceToken token);

  /// Number of collectives (barriers + reductions) initiated so far.
  [[nodiscard]] std::uint32_t barrier_epoch() const { return next_epoch_; }

  // --- One-sided RMA (the rma:: layer) ------------------------------------------

  /// Posts a one-sided operation; completion arrives at the port's RmaSink
  /// (rma::Domain), not on the event stream. Charges the host-side posting
  /// cost like send().
  [[nodiscard]] sim::Task post_rma(nic::RmaToken token);

  /// Registers host memory as RMA segment `segment` of this port. Host-side
  /// instantaneous (the registration word rides the port-open handshake).
  void rma_register(std::uint64_t segment, nic::RmaMemory* mem) {
    nic_.rma_register(id_, segment, mem);
  }

  /// Installs the initiator-side completion surface (nullptr detaches).
  void set_rma_sink(nic::RmaSink* sink) { nic_.set_rma_sink(id_, sink); }

  /// Completions from an earlier, aborted epoch can still surface after a
  /// cancel if the event was already in flight through RDMA/PCI; the waiting
  /// layer (coll::BarrierMember) filters them by epoch and reports each drop
  /// here so the defence is observable, not silent.
  void count_stale_completion() { ++stale_completions_; }
  [[nodiscard]] std::uint64_t stale_completions() const { return stale_completions_; }

  /// Aborts the in-flight barrier on this port (deadline expired or a group
  /// member died). Safe to call when no barrier is active.
  void barrier_cancel() { nic_.cancel_barrier(id_); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Occupies the host CPU for `d` of pure computation (used by fuzzy-
  /// barrier workloads that overlap work with a NIC-resident barrier).
  [[nodiscard]] sim::Task compute(sim::Duration d);

 private:
  /// Records the barrier's sink span when its completion reaches the host
  /// (the Eq. 1-2 HRecv term). No-op for other events.
  void note_event_received(const GmEvent& ev);

  sim::Simulator& sim_;
  sim::Resource& cpu_;
  nic::Nic& nic_;
  nic::PortId id_;
  GmConfig config_;
  sim::Mailbox<GmEvent> events_;
  bool open_ = false;
  std::uint32_t next_epoch_ = 0;
  std::uint64_t stale_completions_ = 0;
};

}  // namespace nicbar::gm
