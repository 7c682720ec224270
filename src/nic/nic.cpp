// Core MCP: port management, the SDMA/SEND ordinary-message path, the
// RECV/RDMA receive path, and connection-level reliability (seq/ack/nack +
// go-back-N retransmission). The barrier firmware lives in nic_barrier.cpp.
#include "nic/nic.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace nicbar::nic {

using net::Packet;
using net::PacketType;

const char* to_string(BarrierAlgorithm a) {
  switch (a) {
    case BarrierAlgorithm::kPairwiseExchange: return "PE";
    case BarrierAlgorithm::kGatherBroadcast: return "GB";
    case BarrierAlgorithm::kHierarchical: return "HIER";
  }
  return "?";
}

const char* to_string(McpEngine e) {
  switch (e) {
    case McpEngine::kSdma: return "sdma";
    case McpEngine::kSend: return "send";
    case McpEngine::kRecv: return "recv";
    case McpEngine::kRdma: return "rdma";
  }
  return "?";
}

Nic::Nic(sim::Simulator& sim, net::Network& net, NodeId node, const NicConfig& config,
         sim::BusyServer& pci)
    : sim_(sim),
      net_(net),
      node_(node),
      config_(config),
      proc_(sim, config_.clock_mhz, "nic" + std::to_string(node)),
      pci_(pci),
      ports_(static_cast<std::size_t>(config_.max_ports)),
      slots_(config_.barrier_slots) {}

Nic::SpanId Nic::engine_submit(McpEngine engine, Segment seg, const char* label,
                              std::int64_t cycles, sim::SmallFn on_done, SpanId parent,
                              SpanId parent2, std::int64_t detect_cycles) {
  const auto i = static_cast<std::size_t>(engine);
  ++engines_.jobs[i];
  engines_.cycles[i] += cycles;
  const sim::SimTime end = proc_.submit_cycles(cycles, std::move(on_done));
  if (causal_ == nullptr) return 0;
  const auto res = static_cast<sim::causal::Resource>(
      static_cast<std::size_t>(sim::causal::Resource::kSdma) + i);
  const sim::SimTime start = end - proc_.cycles(cycles - detect_cycles);
  if (detect_cycles > 0) {
    parent = causal_->record({.seg = Segment::kSdma, .res = res, .node = node_,
                              .label = "sdma_detect",
                              .start = start - proc_.cycles(detect_cycles), .end = start,
                              .busy_end = start},
                             parent);
  }
  return causal_->record({.seg = seg, .res = res, .node = node_, .label = label, .start = start,
                          .end = end, .busy_end = end},
                         parent, parent2);
}

void Nic::fault_span(const char* label) {
  if (causal_ == nullptr) return;
  causal_->record({.seg = Segment::kFirmware, .res = sim::causal::Resource::kFault,
                   .node = node_, .label = label, .start = sim_.now(), .end = sim_.now(),
                   .busy_end = sim_.now()});
}

Connection& Nic::conn(NodeId remote) { return conns_.get_or_create(remote); }

const Connection& Nic::connection(NodeId remote) const {
  const Connection* c = conns_.find(remote);
  if (c == nullptr) throw std::out_of_range("no connection to remote " + std::to_string(remote));
  return *c;
}

bool Nic::barrier_active(PortId p) const {
  const PortState& ps = port(p);
  return ps.active_barrier != nullptr && !ps.active_barrier->completed;
}

// --- Ports ---------------------------------------------------------------------

void Nic::open_port(PortId p, sim::Mailbox<GmEvent>* events) {
  PortState& ps = port(p);
  if (ps.open) throw std::logic_error("port already open");
  ps.open = true;
  ps.events = events;
  ps.recv_tokens.clear();
  ps.barrier_buffers = 0;
  ps.active_barrier.reset();
  ps.last_barrier.reset();
  ps.active_reduce.reset();
  ps.last_reduce.reset();
  ps.last_completed_epoch = -1;  // a fresh endpoint restarts its epoch sequence
  ps.rma_segments.clear();
  ps.rma_sink = nullptr;
  ps.rma_parked.clear();
  flush_closed_port_records(p);
}

void Nic::close_port(PortId p) {
  PortState& ps = port(p);
  ps.open = false;
  ps.events = nullptr;
  ps.recv_tokens.clear();
  ps.barrier_buffers = 0;
  // An active barrier is abandoned (the §3.2 pathological case); the record
  // of the last completed barrier dies with the endpoint, so later barrier
  // NACKs will correctly find "endpoint closed since" and not resend.
  ps.active_barrier.reset();
  ps.last_barrier.reset();
  ps.active_reduce.reset();
  ps.last_reduce.reset();
  // Any group slots held by the endpoint die with it: a process that closes
  // (or crashes) mid-lifecycle must not pin NIC state forever, and packets
  // from its groups are fenced from now on.
  slots_.release_port(p);
  // RMA registrations and parked ops die with the endpoint too.
  ps.rma_segments.clear();
  ps.rma_sink = nullptr;
  ps.rma_parked.clear();
}

bool Nic::is_port_open(PortId p) const { return port(p).open; }

// --- Barrier-group slot admission ---------------------------------------------

bool Nic::slot_allocate(std::uint64_t group, PortId p) {
  if (group == 0) throw std::invalid_argument("group id 0 is the reserved anonymous group");
  const bool ok = slots_.allocate(group, p);
  return ok;
}

void Nic::slot_free(std::uint64_t group, PortId p) {
  slots_.release(group, p);
}

bool Nic::slot_bound(std::uint64_t group, PortId p) const { return slots_.bound(group, p); }

void Nic::post_receive_token(PortId p, RecvToken token) {
  port(p).recv_tokens.push_back(token);
}

void Nic::provide_barrier_buffer(PortId p) { ++port(p).barrier_buffers; }

// --- SDMA / SEND: ordinary messages ------------------------------------------------

void Nic::post_send_token(SendToken token) {
  // SDMA notices the token (poll loop) and programs the host->NIC DMA.
  engine_submit(
      McpEngine::kSdma, Segment::kSdma, "detect+setup",
      config_.sdma_detect_cycles + config_.sdma_setup_cycles,
      [this, token = std::move(token)]() mutable { sdma_start(std::move(token)); });
}

void Nic::sdma_start(SendToken token) {
  // Messages above the MTU are segmented; fragments pipeline through the
  // PCI DMA, packet preparation, and the wire (each stage FIFO).
  const std::int64_t mtu = config_.mtu_bytes;
  const auto frag_count = static_cast<std::uint16_t>(
      token.bytes <= mtu ? 1 : (token.bytes + mtu - 1) / mtu);
  sdma_fragment(std::move(token), 0, frag_count);
}

void Nic::sdma_fragment(SendToken token, std::uint16_t index, std::uint16_t frag_count) {
  const std::int64_t offset = static_cast<std::int64_t>(index) * config_.mtu_bytes;
  const std::int64_t len =
      frag_count == 1 ? token.bytes : std::min(config_.mtu_bytes, token.bytes - offset);
  const sim::Duration dma =
      config_.pci_setup + sim::transfer_time(len, config_.pci_bandwidth_mbps);
  pci_submit(Segment::kSdma, "sdma_dma", dma, 0,
             [this, token = std::move(token), index, frag_count, len]() mutable {
    engine_submit(
        McpEngine::kSdma, Segment::kSdma, "prepare", config_.sdma_prepare_cycles,
        [this, token = std::move(token), index, frag_count, len]() mutable {
          Packet p;
          p.type = PacketType::kData;
          p.src_node = node_;
          p.src_port = token.src_port;
          p.dst_node = token.dst.node;
          p.dst_port = token.dst.port;
          p.payload_bytes = len;
          p.message_bytes = token.bytes;
          p.tag = token.tag;
          p.value = token.value;
          p.frag_index = index;
          p.frag_count = frag_count;
          const bool last = index + 1 == frag_count;
          enqueue_reliable(p, last ? std::move(token.on_sent) : nullptr);
          if (!last) sdma_fragment(std::move(token), static_cast<std::uint16_t>(index + 1),
                                   frag_count);
        });
  });
}

void Nic::post_multicast_token(MulticastToken token) {
  if (token.bytes > config_.mtu_bytes) {
    throw std::invalid_argument("multicast payload exceeds the MTU");
  }
  engine_submit(
      McpEngine::kSdma, Segment::kSdma, "detect+setup",
      config_.sdma_detect_cycles + config_.sdma_setup_cycles,
      [this, token = std::move(token)]() mutable {
        // The decisive difference from a host-side send loop: ONE PCI
        // crossing regardless of the destination count.
        const sim::Duration dma =
            config_.pci_setup + sim::transfer_time(token.bytes, config_.pci_bandwidth_mbps);
        pci_submit(Segment::kSdma, "mcast_dma", dma, 0, [this, token = std::move(token)]() mutable {
          ++stats_.multicasts_sent;
          for (const Endpoint& dst : token.destinations) {
            // Per-destination packet preparation, pipelined on the processor.
            auto tok = std::make_shared<MulticastToken>(token);
            engine_submit(McpEngine::kSdma, Segment::kSdma, "prepare",
                          config_.sdma_prepare_cycles, [this, tok, dst] {
              Packet p;
              p.type = PacketType::kData;
              p.src_node = node_;
              p.src_port = tok->src_port;
              p.dst_node = dst.node;
              p.dst_port = dst.port;
              p.payload_bytes = tok->bytes;
              p.tag = tok->tag;
              p.value = tok->value;
              enqueue_reliable(p, nullptr);
            });
          }
        });
      });
}

void Nic::enqueue_reliable(const Packet& p, std::function<void()> on_sent) {
  Connection& c = conn(p.dst_node);
  if (c.dead) {
    // The peer was declared dead: reliable traffic to it is discarded (the
    // host has been told via kPeerDead and must not expect delivery).
    ++stats_.dead_peer_drops;
    return;
  }
  net::PacketPtr packet = net::make_packet(p);
  packet->seq = c.next_send_seq++;
  c.reliability().sent_list.push_back(SentRecord{*packet, std::move(on_sent), sim_.now(), false});
  arm_retransmit(p.dst_node);
  ++stats_.data_sent;
  transmit(std::move(packet));
}

void Nic::transmit(net::PacketPtr packet, std::int64_t send_cycles_override) {
  if (crashed_) {
    ++stats_.tx_dropped_crashed;
    return;
  }
  // The loopback job below takes the handle; `p` stays valid until the job
  // runs, which is after this function returns.
  Packet& p = *packet;
  // Stamp the fabric-unique id here (not at injection) so loopback packets
  // carry one too.
  if (p.id == 0) p.id = net_.allocate_packet_id(node_);
  const std::int64_t cost =
      send_cycles_override >= 0
          ? send_cycles_override
          : (net::is_barrier_payload(p.type) ? config_.barrier_send_cycles : config_.send_cycles);
  // The packet's causal chain now ends at this SEND-engine span; wire and
  // switch hops extend it in flight.
  if (p.dst_node == node_) {
    // Same-NIC delivery: skip the fabric, model a short internal turnaround.
    p.causal = engine_submit(
        McpEngine::kSend, Segment::kSend, "tx", cost,
        [this, packet = std::move(packet)]() mutable {
          sim_.schedule_in(proc_.cycles(config_.send_cycles),
                           [this, pkt = std::move(packet)]() mutable {
                             rx_packet(std::move(pkt));
                           });
        },
        p.causal);
    return;
  }
  // Only this NIC's SEND jobs feed its uplink, so the packet is queued there
  // now, ready when the job ends; the job itself needs no completion event.
  p.causal = engine_submit(McpEngine::kSend, Segment::kSend, "tx", cost, {}, p.causal);
  net_.inject(std::move(packet), proc_.free_at());
}

void Nic::send_control(const Packet& p) {
  // Acks/nacks are small unsequenced control packets prepared by RDMA/SEND.
  transmit(net::make_packet(p));
}

// --- RECV dispatch --------------------------------------------------------------------

void Nic::rx_packet(net::PacketPtr packet) {
  if (crashed_) {
    // The LANai processor is halted: the packet dies at the port.
    ++stats_.rx_dropped_crashed;
    return;
  }
  // The RECV job below takes the handle; `p` stays valid until it runs.
  Packet& p = *packet;
  if (p.corrupted) {
    // The CRC check runs after the whole packet has streamed in, so the
    // RECV engine pays its full occupancy before discarding.
    engine_submit(McpEngine::kRecv, Segment::kRecv, "rx_crc_drop", config_.recv_cycles,
                  [this] { ++stats_.crc_drops; }, p.causal);
    return;
  }
  if (const Connection* c = conns_.find(p.src_node); c != nullptr && c->dead) {
    // Traffic from a peer we gave up on; the connection state is torn down,
    // so nothing here can be interpreted safely.
    ++stats_.dead_peer_drops;
    return;
  }
  switch (p.type) {
    // RMA payloads share the kData receive path end-to-end: same RECV
    // occupancy, same sequence check, same go-back-N — the stream is where
    // their ordering guarantee comes from. They fork off only at
    // accept_in_order, into the firmware instead of a host buffer.
    case PacketType::kRmaPut:
    case PacketType::kRmaGet:
    case PacketType::kRmaCas:
    case PacketType::kRmaReply:
    case PacketType::kData:
      p.causal = engine_submit(
          McpEngine::kRecv, Segment::kRecv, "rx_data", config_.recv_cycles,
          [this, packet = std::move(packet)]() mutable { recv_data(std::move(packet)); },
          p.causal);
      break;
    case PacketType::kAck:
      engine_submit(McpEngine::kRecv, Segment::kRecv, "rx_ack", config_.recv_ack_cycles,
                    [this, packet = std::move(packet)] { recv_ack(*packet); }, p.causal);
      break;
    case PacketType::kNack:
      engine_submit(McpEngine::kRecv, Segment::kRecv, "rx_nack", config_.recv_ack_cycles,
                    [this, packet = std::move(packet)] { recv_nack(*packet); }, p.causal);
      break;
    case PacketType::kBarrierPe:
    case PacketType::kBarrierGather:
    case PacketType::kBarrierBcast:
    case PacketType::kReduceUp:
    case PacketType::kReduceDown:
      p.causal = engine_submit(
          McpEngine::kRecv, Segment::kRecv, "rx_barrier", config_.recv_cycles,
          [this, packet = std::move(packet)]() mutable { barrier_rx(std::move(packet)); },
          p.causal);
      break;
    case PacketType::kBarrierAck:
      engine_submit(McpEngine::kRecv, Segment::kRecv, "rx_barrier_ack", config_.recv_ack_cycles,
                    [this, packet = std::move(packet)] { barrier_recv_barrier_ack(*packet); },
                    p.causal);
      break;
    case PacketType::kBarrierNack:
      engine_submit(McpEngine::kRecv, Segment::kRecv, "rx_barrier_nack",
                    config_.recv_ack_cycles,
                    [this, packet = std::move(packet)] { barrier_handle_nack(*packet); },
                    p.causal);
      break;
  }
}

void Nic::recv_data(net::PacketPtr packet) {
  const Packet& p = *packet;
  Connection& c = conn(p.src_node);
  if (p.seq == c.next_expected_seq) {
    // In-order. GM receive-side flow control: without a host buffer the
    // packet cannot be accepted; leave the stream position unchanged so the
    // sender's retransmission redelivers it later. Collective payloads
    // (shared-stream mode) are consumed by the NIC itself, no host buffer;
    // non-leading fragments use the buffer claimed by fragment 0.
    if (!net::is_collective_payload(p.type) && !net::is_rma_payload(p.type) &&
        p.frag_index == 0 &&
        port(p.dst_port).open && port(p.dst_port).recv_tokens.empty()) {
      ++stats_.no_token_drops;
      send_nack(p.src_node);
      return;
    }
    ++c.next_expected_seq;
    if (c.rel) c.rel->nack_outstanding = false;
    send_ack(p.src_node);
    accept_in_order(std::move(packet));
  } else if (p.seq < c.next_expected_seq) {
    ++stats_.duplicates_dropped;
    send_ack(p.src_node);  // re-ack so the sender can retire it
  } else {
    ++stats_.out_of_order_dropped;
    ConnectionReliability& r = c.reliability();
    if (!r.nack_outstanding) {
      r.nack_outstanding = true;
      send_nack(p.src_node);
    }
  }
}

void Nic::accept_in_order(net::PacketPtr packet) {
  Packet& p = *packet;  // the firmware job takes the handle; valid until it runs
  if (net::is_collective_payload(p.type)) {
    // Shared-stream mode: the barrier message passed the ordinary stream
    // check; now run the barrier firmware on it, at the same cost as the
    // other reliability modes.
    p.causal = engine_submit(
        McpEngine::kRdma, Segment::kFirmware, "barrier_advance", barrier_rx_cost(p),
        [this, packet = std::move(packet)] { barrier_rx_in_order(*packet); }, p.causal);
    return;
  }
  if (net::is_rma_payload(p.type)) {
    // One-sided ops terminate in the firmware, never in a host buffer.
    rma_rx_in_order(std::move(packet));
    return;
  }
  ++stats_.data_received;
  if (!port(p.dst_port).open) {
    ++stats_.closed_port_drops;
    return;
  }
  deliver_to_host(std::move(packet));
}

void Nic::recv_ack(const Packet& p) {
  ++stats_.acks_received;
  Connection& c = conn(p.src_node);
  if (!c.rel) return;  // nothing was ever sent reliably: nothing to retire
  ConnectionReliability& r = *c.rel;
  bool retired = false;
  bool sampled = false;
  while (!r.sent_list.empty() && r.sent_list.front().packet.seq <= p.ack) {
    SentRecord rec = std::move(r.sent_list.front());
    r.sent_list.pop_front();
    retired = true;
    // Karn's rule: a retransmitted packet's ack is ambiguous (original or
    // copy?), so only unambiguous records feed the estimator — and one
    // sample per ack, like TCP's per-ack clocking.
    if (!sampled && !rec.retransmitted) {
      sample_rtt(r, sim_.now() - rec.first_sent);
      sampled = true;
    }
    if (rec.on_sent) sim_.schedule_now(std::move(rec.on_sent));
  }
  if (retired) {
    r.retransmissions = 0;
    r.backoff = 0;
    sim_.cancel(r.retransmit_timer);
    if (!r.sent_list.empty()) arm_retransmit(p.src_node);
  }
}

void Nic::recv_nack(const Packet& p) {
  ++stats_.nacks_received;
  Connection& c = conn(p.src_node);
  if (!c.rel) return;  // nothing was ever sent reliably: nothing to resend
  ConnectionReliability& r = *c.rel;
  // NACK(n): receiver has everything below n; retire those, resend the rest.
  while (!r.sent_list.empty() && r.sent_list.front().packet.seq < p.ack) {
    SentRecord rec = std::move(r.sent_list.front());
    r.sent_list.pop_front();
    if (rec.on_sent) sim_.schedule_now(std::move(rec.on_sent));
  }
  retransmit_all(p.src_node);
}

// --- Reliability timers -------------------------------------------------------------------

sim::Duration Nic::current_rto(const ConnectionReliability& c) const {
  if (!config_.adaptive_rto) return config_.retransmit_timeout;
  sim::Duration rto = config_.retransmit_timeout;  // initial RTO, pre-sample
  if (c.rtt_valid) {
    // Simulated RTTs carry no clock noise, so rttvar collapses whenever acks
    // are steady and srtt + 4·rttvar alone would fire on the first queueing
    // spike the estimator hasn't seen (TCP hides the same hazard behind a
    // min RTO of many RTT multiples). Floor the estimate at 8x the worst
    // ack delay this path has actually produced: a delay the peer already
    // demonstrated can never look like silence, while a dead path still does.
    double est = c.srtt_ps + 4.0 * c.rttvar_ps;
    if (est < 8.0 * c.rtt_max_ps) est = 8.0 * c.rtt_max_ps;
    rto = sim::Duration{static_cast<std::int64_t>(est)};
  }
  // Exponential backoff: each consecutive timeout doubles the wait, so a
  // persistently silent peer backs the sender off instead of flooding.
  for (int i = 0; i < c.backoff && rto < config_.max_rto; ++i) rto = rto * 2;
  if (rto < config_.min_rto) rto = config_.min_rto;
  if (rto > config_.max_rto) rto = config_.max_rto;
  return rto;
}

void Nic::sample_rtt(ConnectionReliability& c, sim::Duration rtt) {
  if (!config_.adaptive_rto) return;
  ++stats_.rtt_samples;
  const double sample = static_cast<double>(rtt.ps());
  if (sample > c.rtt_max_ps) {
    c.rtt_max_ps = sample;
  } else {
    // Leaky max: a queueing spike raises the floor instantly but is forgiven
    // over ~8 quiet samples, so one loss-recovery transient can't pin the
    // RTO near its ceiling for the rest of the run.
    c.rtt_max_ps -= (c.rtt_max_ps - sample) / 8.0;
  }
  if (!c.rtt_valid) {
    // Jacobson's initialisation: first sample seeds srtt, rttvar = srtt/2.
    c.srtt_ps = sample;
    c.rttvar_ps = sample / 2.0;
    c.rtt_valid = true;
    return;
  }
  const double err = sample - c.srtt_ps;
  c.rttvar_ps += ((err < 0 ? -err : err) - c.rttvar_ps) / 4.0;  // gain 1/4
  c.srtt_ps += err / 8.0;                                       // gain 1/8
}

void Nic::arm_retransmit(NodeId remote) {
  Connection& conn_state = conn(remote);
  ConnectionReliability& c = conn_state.reliability();
  sim_.cancel(c.retransmit_timer);
  if (crashed_ || conn_state.dead) return;
  c.retransmit_timer = sim_.schedule_in(current_rto(c), [this, remote] {
    ConnectionReliability& cc = conn(remote).reliability();
    if (cc.sent_list.empty()) return;
    ++stats_.retransmit_timeouts;
    if (++cc.retransmissions > config_.max_retransmissions) {
      declare_peer_dead(remote);
      return;
    }
    if (config_.adaptive_rto) {
      ++cc.backoff;
      ++stats_.rto_backoffs;
    }
    retransmit_all(remote);
  });
}

void Nic::retransmit_all(NodeId remote) {
  ConnectionReliability& c = conn(remote).reliability();
  for (SentRecord& rec : c.sent_list) {
    rec.retransmitted = true;  // Karn: its ack can no longer be sampled
    ++stats_.retransmissions;
    transmit(net::make_packet(rec.packet));
  }
  if (!c.sent_list.empty()) arm_retransmit(remote);
}

void Nic::declare_peer_dead(NodeId remote) {
  Connection& c = conn(remote);
  if (c.dead) return;
  c.dead = true;
  ++stats_.connections_failed;
  if (c.rel) {
    sim_.cancel(c.rel->retransmit_timer);
    sim_.cancel(c.rel->barrier_retransmit_timer);
    c.rel->sent_list.clear();
    c.rel->barrier_sent_list.clear();
  }
  fault_span("peer_dead");
  GmEvent ev;
  ev.type = GmEventType::kPeerDead;
  ev.peer = Endpoint{remote, 0};
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (!ports_[p] || !ports_[p]->open) continue;
    push_event(static_cast<PortId>(p), ev);
    // One-sided ops in flight to the dead peer will never see their reply;
    // the rma:: layer fails them with kPeerDead.
    if (ports_[p]->rma_sink != nullptr) ports_[p]->rma_sink->rma_peer_dead(remote);
  }
}

// --- Fault injection ------------------------------------------------------------------------

void Nic::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.nic_crashes;
  fault_span("crash");
  // The firmware's timers die with the processor; connection bookkeeping
  // survives in host/NIC SRAM and is replayed by restart().
  conns_.for_each([this](NodeId, Connection& c) {
    if (!c.rel) return;
    sim_.cancel(c.rel->retransmit_timer);
    sim_.cancel(c.rel->barrier_retransmit_timer);
  });
}

void Nic::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.nic_restarts;
  fault_span("restart");
  // Replay everything unacknowledged on both streams; the receiver's
  // duplicate suppression makes this safe.
  conns_.for_each([this](NodeId remote, Connection& c) {
    if (c.dead || !c.rel) return;
    ConnectionReliability& r = *c.rel;
    r.retransmissions = 0;
    r.barrier_retransmissions = 0;
    r.backoff = 0;
    if (!r.sent_list.empty()) retransmit_all(remote);
    if (!r.barrier_sent_list.empty()) barrier_retransmit_all(remote);
  });
}

void Nic::send_ack(NodeId remote) {
  Connection& c = conn(remote);
  Packet a;
  a.type = PacketType::kAck;
  a.src_node = node_;
  a.dst_node = remote;
  a.ack = c.next_expected_seq - 1;  // cumulative: highest accepted
  ++stats_.acks_sent;
  send_control(a);
}

void Nic::send_nack(NodeId remote) {
  Connection& c = conn(remote);
  Packet a;
  a.type = PacketType::kNack;
  a.src_node = node_;
  a.dst_node = remote;
  a.ack = c.next_expected_seq;  // the sequence number we want next
  ++stats_.nacks_sent;
  send_control(a);
}

// --- RDMA ----------------------------------------------------------------------------------------

void Nic::deliver_to_host(net::PacketPtr packet) {
  // The jobs below take the handle in turn; `p` stays valid until the last
  // of them has run.
  Packet& p = *packet;
  PortState& ps = port(p.dst_port);
  if (p.frag_index == 0) {
    // Fragment 0 (or a whole unfragmented message) claims the host buffer;
    // later fragments stream into the same buffer.
    assert(!ps.recv_tokens.empty());  // guaranteed by the recv_data token check
    ps.recv_tokens.pop_front();
  }
  p.causal = engine_submit(
      McpEngine::kRdma, Segment::kRdma, "rdma_setup", config_.rdma_setup_cycles,
      [this, packet = std::move(packet)]() mutable {
        Packet& pk = *packet;
        const sim::Duration dma =
            config_.pci_setup + sim::transfer_time(pk.payload_bytes, config_.pci_bandwidth_mbps);
        pci_submit(Segment::kRdma, "rdma_dma", dma, pk.causal,
                   [this, packet = std::move(packet)](SpanId span) {
                     // The host sees one event per *message*, on the final fragment.
                     if (packet->frag_index + 1 != packet->frag_count) return;
                     GmEvent ev;
                     ev.type = GmEventType::kRecv;
                     ev.peer = Endpoint{packet->src_node, packet->src_port};
                     ev.bytes = packet->frag_count == 1 ? packet->payload_bytes
                                                        : packet->message_bytes;
                     ev.tag = packet->tag;
                     ev.value = packet->value;
                     ev.causal = span;
                     push_event(packet->dst_port, ev);
                   });
      },
      p.causal);
}

void Nic::push_event(PortId p, GmEvent ev) {
  PortState& ps = port(p);
  if (!ps.open || ps.events == nullptr) {
    ++stats_.closed_port_drops;
    return;
  }
  ++stats_.events_delivered;
  ps.events->send(ev);
}

}  // namespace nicbar::nic
