// The NIC-based barrier firmware (paper §4.2-§4.4, §5.2).
//
// Barrier state lives in the barrier send token; the port structure points
// at the active token so the RDMA engine can find it when a barrier packet
// arrives. Unexpected arrivals set one bit per (connection, remote port) in
// the per-connection record; the advance logic tests-and-clears those bits.
//
// Three reliability modes (§3.3/§4.4) and three closed-port policies (§3.2)
// are implemented; see NicConfig for which combination the paper measured.
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "nic/nic.hpp"
#include "sim/check.hpp"

namespace nicbar::nic {

using net::Packet;
using net::PacketType;

namespace {

bool contains(const std::vector<Endpoint>& v, Endpoint e) {
  for (const Endpoint& x : v) {
    if (x == e) return true;
  }
  return false;
}

/// Key of a record's entry in Nic::record_extra_.
std::uint32_t record_key(NodeId remote, PortId remote_port) {
  return (std::uint32_t{remote} << 8) | remote_port;
}

}  // namespace

// --- Initiation (SDMA side) ------------------------------------------------------

void Nic::post_barrier_token(BarrierToken token) {
  std::int64_t cycles = config_.sdma_detect_cycles + config_.barrier_init_cycles;
  if (token.algorithm == BarrierAlgorithm::kGatherBroadcast) {
    // A GB token carries a tree slice the firmware must park (flat
    // worst-case charge, calibrated — see NicConfig).
    cycles += config_.barrier_gb_init_cycles;
  } else if (token.algorithm == BarrierAlgorithm::kHierarchical) {
    // Hierarchical tokens pay per parked schedule entry instead: block
    // leaves park two endpoints, not a worst-case tree.
    const auto entries = static_cast<std::int64_t>(
        token.children.size() + token.peers.size() + token.release.size() +
        (token.is_root() ? 0 : 1));
    cycles += entries * config_.barrier_hier_init_per_entry_cycles;
  }
  auto tok = std::make_shared<BarrierToken>(std::move(token));
  // One engine job covers both the SDMA token detection and the firmware
  // barrier initiation; each half is its own span in its own segment.
  tok->causal = engine_submit(McpEngine::kSdma, Segment::kFirmware, "barrier_init", cycles,
                              [this, tok]() mutable { barrier_start(std::move(*tok)); },
                              tok->causal, 0, config_.sdma_detect_cycles);
}

void Nic::barrier_start(BarrierToken token) {
  PortState& ps = port(token.src_port);
  if (!ps.open) return;  // endpoint closed while the token was in flight
  if (ps.active_barrier && !ps.active_barrier->completed) {
    throw std::logic_error("barrier already active on this port");
  }
  // A managed token requires its group's slot binding: the lifecycle layer
  // allocates before the first barrier and frees only after the last, so a
  // violation here is a host-side lifecycle bug, not a race.
  NICBAR_CHECK(token.group == 0 || slots_.bound(token.group, token.src_port), "nic.barrier",
               sim_.now(), "port %u: barrier for group %llu without a slot binding",
               token.src_port, static_cast<unsigned long long>(token.group));
  ++stats_.barriers_started;
  const PortId p = token.src_port;
  ps.active_barrier = std::make_unique<BarrierToken>(std::move(token));
  switch (ps.active_barrier->algorithm) {
    case BarrierAlgorithm::kPairwiseExchange:
      barrier_try_advance_pe(p);
      break;
    case BarrierAlgorithm::kGatherBroadcast:
      barrier_check_gather(p);
      break;
    case BarrierAlgorithm::kHierarchical:
      barrier_hier_check_gather(p);
      break;
  }
}

// --- Receive path ------------------------------------------------------------------

std::int64_t Nic::barrier_rx_cost(const Packet& p) {
  if (p.type == PacketType::kBarrierPe) return config_.barrier_pe_cycles;
  if (p.type == PacketType::kBarrierBcast) {
    // A hierarchical release terminates at the receiver — match the source,
    // complete, done; no child scan and no rebroadcast — so it books at
    // PE-grade cost, not GB's tree-descent charge (which flat GB keeps).
    const BarrierToken* t = port(p.dst_port).active_barrier.get();
    if (t != nullptr && t->algorithm == BarrierAlgorithm::kHierarchical) {
      return config_.barrier_pe_cycles;
    }
  }
  return config_.barrier_gb_cycles;
}

void Nic::barrier_rx(net::PacketPtr packet) {
  // Runs after the RECV engine's per-packet cycles. Route by the configured
  // reliability mode, then pay the algorithm's bookkeeping cycles.
  switch (config_.barrier_reliability) {
    case BarrierReliability::kUnreliable: {
      // The job takes the handle; `p` stays valid until it runs.
      Packet& p = *packet;
      p.causal = engine_submit(
          McpEngine::kRdma, Segment::kFirmware, "barrier_advance", barrier_rx_cost(p),
          [this, packet = std::move(packet)] { barrier_rx_in_order(*packet); }, p.causal);
      break;
    }
    case BarrierReliability::kSharedStream:
      // Same seq/ack stream as data: recv_data runs the stream check and
      // dispatches in-order barrier payloads back to barrier_rx_in_order.
      recv_data(std::move(packet));
      break;
    case BarrierReliability::kSeparateAcks:
      barrier_recv_separate(std::move(packet));
      break;
  }
}

void Nic::barrier_rx_in_order(const Packet& p) {
  ++stats_.barrier_packets_received;
  // Group fence: a packet tagged with a managed group id is only admitted
  // while that group holds a slot for the destination port. Anything else is
  // stale traffic — a round still draining after destroy, or a retransmit
  // that outlived its group — and must not be recorded, NACKed, or delivered
  // into whatever group reused the NIC state since. Counted, then dropped.
  // Legacy packets (group 0) bypass the fence entirely.
  if (p.group != 0 && !slots_.bound(p.group, p.dst_port)) {
    ++stats_.stale_group_fenced;
    return;
  }
  PortState& ps = port(p.dst_port);
  if (!ps.open) {
    barrier_closed_port_arrival(p);
    return;
  }
  if (p.type == PacketType::kReduceUp || p.type == PacketType::kReduceDown) {
    reduce_rx_in_order(p);
    return;
  }
  BarrierToken* tok = ps.active_barrier.get();
  const Endpoint src{p.src_node, p.src_port};

  switch (p.type) {
    case PacketType::kBarrierPe:
      // A hierarchical token only exchanges once its gather phase is done;
      // earlier PE arrivals (a faster block's representative) are recorded
      // below and consumed when the exchange reaches that round.
      if (tok != nullptr && !tok->completed &&
          (tok->algorithm == BarrierAlgorithm::kPairwiseExchange ||
           (tok->algorithm == BarrierAlgorithm::kHierarchical && tok->hier_gathered)) &&
          tok->awaiting_recv &&
          tok->node_index < tok->peers.size() && tok->peers[tok->node_index] == src) {
        // The expected message: advance to the next destination (§5.2).
        ++tok->node_index;
        ++stats_.barrier_pe_rounds;
        tok->awaiting_recv = false;
        if (causal_ != nullptr && p.causal != 0) {
          // The advance depends on both the arrival chain and our own last
          // firmware decision (our send of this round); join them.
          causal_->add_parent(p.causal, tok->causal);
          tok->causal = p.causal;
        }
        barrier_try_advance_pe(p.dst_port);
      } else {
        barrier_record(p, false);
      }
      break;

    case PacketType::kBarrierGather:
      // Gather messages are always recorded first, then the children scan
      // runs (§5.2: "the packet is recorded, then ... checks to see if
      // gather packets have been received from all the children").
      barrier_record(p, false);
      if (tok != nullptr && !tok->completed) {
        if (tok->algorithm == BarrierAlgorithm::kGatherBroadcast && !tok->gather_sent) {
          barrier_check_gather(p.dst_port);
        } else if (tok->algorithm == BarrierAlgorithm::kHierarchical) {
          barrier_hier_check_gather(p.dst_port);  // self-guards on phase
        }
      }
      break;

    case PacketType::kBarrierBcast:
      if (tok != nullptr && !tok->completed &&
          tok->algorithm == BarrierAlgorithm::kGatherBroadcast && tok->gather_sent &&
          tok->parent == src) {
        if (causal_ != nullptr && p.causal != 0) {
          causal_->add_parent(p.causal, tok->causal);
          tok->causal = p.causal;
        }
        barrier_complete(p.dst_port);
        barrier_enter_broadcast(p.dst_port);
      } else if (tok != nullptr && !tok->completed &&
                 tok->algorithm == BarrierAlgorithm::kHierarchical && tok->gather_sent &&
                 !tok->release.empty() && tok->release[0] == src) {
        // The multidestination release from our representative: complete
        // without rebroadcasting — the representative reached every block
        // member directly.
        if (causal_ != nullptr && p.causal != 0) {
          causal_->add_parent(p.causal, tok->causal);
          tok->causal = p.causal;
        }
        barrier_complete(p.dst_port);
      } else {
        barrier_record(p, false);
      }
      break;

    default:
      assert(false && "non-barrier packet in barrier_rx_in_order");
  }
}

void Nic::barrier_record(const Packet& p, bool for_closed_port) {
  Connection& c = conn(p.src_node);
  if (c.bit(p.src_port)) {
    // §3.1 argues at most one unexpected message per remote endpoint can be
    // outstanding; a collision here means duplicate delivery (packet loss +
    // retransmission) — count it, keep the newer record.
    ++stats_.bit_collisions;
  } else {
    ++stats_.unexpected_recorded;
  }
  c.set_bit(p.src_port, BarrierBitInfo{p.barrier_epoch, p.type, p.dst_port, for_closed_port});
  if (causal_ != nullptr || p.type == PacketType::kReduceUp ||
      p.type == PacketType::kReduceDown) {
    const std::uint32_t key = record_key(p.src_node, p.src_port);
    const RecordExtra extra{p.value, p.causal};
    auto it = record_extra_.begin();
    while (it != record_extra_.end() && it->first != key) ++it;
    if (it != record_extra_.end()) {
      it->second = extra;  // a collision keeps the newer record
    } else {
      record_extra_.emplace_back(key, extra);
    }
  }
}

RecordExtra Nic::record_extra(NodeId remote, PortId remote_port) const {
  const std::uint32_t key = record_key(remote, remote_port);
  for (const auto& [k, extra] : record_extra_) {
    if (k == key) return extra;
  }
  return {};
}

void Nic::clear_record(Connection& c, NodeId remote, PortId remote_port) {
  c.clear_bit(remote_port);
  const std::uint32_t key = record_key(remote, remote_port);
  for (auto& entry : record_extra_) {
    if (entry.first == key) {
      entry = record_extra_.back();
      record_extra_.pop_back();
      return;
    }
  }
}

// --- Pairwise exchange (§5.2) ----------------------------------------------------------

void Nic::barrier_try_advance_pe(PortId local_port) {
  PortState& ps = port(local_port);
  BarrierToken* tok = ps.active_barrier.get();
  if (tok == nullptr || tok->completed) return;
  // Also drives the exchange phase of a hierarchical token (same parked
  // state: peers / node_index / awaiting_recv); it only differs at the end,
  // where the representative releases its block instead of just completing.
  const bool hier = tok->algorithm == BarrierAlgorithm::kHierarchical;
  if (hier ? !tok->hier_gathered : tok->algorithm != BarrierAlgorithm::kPairwiseExchange) {
    return;
  }
  for (;;) {
    if (tok->node_index >= tok->peers.size()) {
      if (hier) {
        // Representative hop, downward edge: the instant the last exchange
        // settles and the release leaves the NIC. Zero-duration — the
        // hand-off costs nothing here, unlike the host-orchestrated
        // composition it replaces.
        if (causal_ != nullptr) {
          tok->causal = causal_->record(Segment::kRep, node_, "rep_down",
                                        sim_.now(), sim_.now(), tok->causal);
        }
        // Multidestination release, issued *before* our own completion DMA:
        // the block's wakeups are the latency-critical edge; the host here
        // can learn a couple of microseconds later. (Deliberate inversion of
        // §5.2's notify-first root order, which flat GB keeps.)
        ++stats_.barrier_bcasts_entered;
        for (std::size_t i = 0; i < tok->release.size(); ++i) {
          // First copy stages the packet at full cost; the rest are
          // header-rewrite replicas.
          barrier_send(local_port, tok->release[i], PacketType::kBarrierBcast, tok->epoch,
                       /*mcast_copy=*/i > 0);
        }
        barrier_complete(local_port);
        return;
      }
      barrier_complete(local_port);
      return;
    }
    const Endpoint peer = tok->peers[tok->node_index];
    if (!tok->awaiting_recv) {
      barrier_send(local_port, peer, PacketType::kBarrierPe, tok->epoch);
      tok->awaiting_recv = true;
    }
    Connection& c = conn(peer.node);
    if (!c.bit(peer.port)) return;  // wait for the RDMA engine to advance us
    // Already received (recorded as unexpected): test-and-clear, advance.
    const std::uint64_t arrival = record_extra(peer.node, peer.port).causal;
    clear_record(c, peer.node, peer.port);
    tok->causal = engine_submit(McpEngine::kRdma, Segment::kFirmware, "pe_advance",
                                config_.barrier_pe_cycles, {}, arrival,
                                tok->causal);  // bookkeeping
    ++tok->node_index;
    ++stats_.barrier_pe_rounds;
    tok->awaiting_recv = false;
  }
}

// --- Gather-and-broadcast (§5.2) ----------------------------------------------------------

void Nic::barrier_check_gather(PortId local_port) {
  PortState& ps = port(local_port);
  BarrierToken* tok = ps.active_barrier.get();
  if (tok == nullptr || tok->completed ||
      tok->algorithm != BarrierAlgorithm::kGatherBroadcast || tok->gather_sent) {
    return;
  }
  for (const Endpoint& child : tok->children) {
    if (!conn(child.node).bit(child.port)) return;  // still waiting on a child
  }
  if (causal_ != nullptr && !tok->children.empty()) {
    // Zero-duration join: the gather condition depends on every child's
    // arrival chain plus our own initiation; the last-ending parent is the
    // one the critical path walks through.
    const std::uint64_t join = causal_->record(Segment::kFirmware, node_,
                                               "gather_ready", sim_.now(), sim_.now(),
                                               tok->causal);
    for (const Endpoint& child : tok->children) {
      causal_->add_parent(join, record_extra(child.node, child.port).causal);
    }
    tok->causal = join;
  }
  for (const Endpoint& child : tok->children) clear_record(conn(child.node), child.node, child.port);

  if (tok->is_root()) {
    // §5.2: the root notifies the host *first*, then broadcasts.
    barrier_complete(local_port);
    barrier_enter_broadcast(local_port);
    return;
  }
  barrier_send(local_port, tok->parent, PacketType::kBarrierGather, tok->epoch);
  tok->gather_sent = true;
  ++stats_.barrier_gathers_sent;
  // Robustness: a (re)broadcast from the parent may already be recorded
  // (possible after closed-port flush/resend interleavings).
  Connection& pc = conn(tok->parent.node);
  if (pc.bit(tok->parent.port) &&
      pc.bit_info[tok->parent.port].type == PacketType::kBarrierBcast) {
    if (causal_ != nullptr) {
      tok->causal = causal_->record(Segment::kFirmware, node_, "bcast_seen",
                                    sim_.now(), sim_.now(),
                                    record_extra(tok->parent.node, tok->parent.port).causal,
                                    tok->causal);
    }
    clear_record(pc, tok->parent.node, tok->parent.port);
    barrier_complete(local_port);
    barrier_enter_broadcast(local_port);
  }
}

// --- Hierarchical (two-level fabric barrier, representative side) -------------------------

void Nic::barrier_hier_check_gather(PortId local_port) {
  // Phase one of a hierarchical token: the intra-block gather. At the
  // representative (the block tree's root) satisfaction flips the token
  // straight into the inter-representative exchange, all without a host
  // round-trip. At everyone else it forwards one gather up the block tree
  // and parks until the representative's release arrives.
  PortState& ps = port(local_port);
  BarrierToken* tok = ps.active_barrier.get();
  if (tok == nullptr || tok->completed ||
      tok->algorithm != BarrierAlgorithm::kHierarchical ||
      (tok->is_root() ? tok->hier_gathered : tok->gather_sent)) {
    return;
  }
  for (const Endpoint& child : tok->children) {
    if (!conn(child.node).bit(child.port)) return;  // still waiting on a child
  }
  if (causal_ != nullptr && !tok->children.empty()) {
    const std::uint64_t join = causal_->record(Segment::kFirmware, node_,
                                               "gather_ready", sim_.now(), sim_.now(),
                                               tok->causal);
    for (const Endpoint& child : tok->children) {
      causal_->add_parent(join, record_extra(child.node, child.port).causal);
    }
    tok->causal = join;
  }
  for (const Endpoint& child : tok->children) clear_record(conn(child.node), child.node, child.port);

  if (!tok->is_root()) {
    barrier_send(local_port, tok->parent, PacketType::kBarrierGather, tok->epoch);
    tok->gather_sent = true;
    ++stats_.barrier_gathers_sent;
    // Robustness: the representative's release may already be recorded
    // (possible after closed-port flush/resend interleavings).
    if (!tok->release.empty()) {
      Connection& rc = conn(tok->release[0].node);
      if (rc.bit(tok->release[0].port) &&
          rc.bit_info[tok->release[0].port].type == PacketType::kBarrierBcast) {
        if (causal_ != nullptr) {
          tok->causal = causal_->record(
              Segment::kFirmware, node_, "bcast_seen", sim_.now(), sim_.now(),
              record_extra(tok->release[0].node, tok->release[0].port).causal, tok->causal);
        }
        clear_record(rc, tok->release[0].node, tok->release[0].port);
        barrier_complete(local_port);
      }
    }
    return;
  }

  tok->hier_gathered = true;
  // Representative hop, upward edge: the block is in, the exchange begins.
  if (causal_ != nullptr) {
    tok->causal = causal_->record(Segment::kRep, node_, "rep_up", sim_.now(),
                                  sim_.now(), tok->causal);
  }
  ++stats_.barrier_hier_gathers;
  barrier_try_advance_pe(local_port);
}

void Nic::barrier_enter_broadcast(PortId local_port) {
  // Runs after barrier_complete(): the token has moved to last_barrier.
  PortState& ps = port(local_port);
  BarrierToken* tok = ps.last_barrier.get();
  assert(tok != nullptr && tok->completed);
  ++stats_.barrier_bcasts_entered;
  for (const Endpoint& child : tok->children) {
    barrier_send(local_port, child, PacketType::kBarrierBcast, tok->epoch);
  }
}

// --- Sending ---------------------------------------------------------------------------------

void Nic::barrier_send(PortId local_port, Endpoint dst, PacketType type, std::uint32_t epoch,
                       bool mcast_copy) {
  Packet p;
  p.type = type;
  p.src_node = node_;
  p.src_port = local_port;
  p.dst_node = dst.node;
  p.dst_port = dst.port;
  p.payload_bytes = config_.barrier_payload_bytes;
  p.barrier_epoch = epoch;
  ++stats_.barrier_packets_sent;
  {
    // The message belongs to the epoch's token (active or just-completed):
    // stamp its group id, and — under causal tracing — descend from this
    // member's latest firmware decision for that epoch.
    PortState& sps = port(local_port);
    BarrierToken* src_tok = nullptr;
    if (sps.active_barrier && sps.active_barrier->epoch == epoch) {
      src_tok = sps.active_barrier.get();
    } else if (sps.last_barrier && sps.last_barrier->epoch == epoch) {
      src_tok = sps.last_barrier.get();
    }
    if (src_tok != nullptr) {
      p.group = src_tok->group;
      if (causal_ != nullptr) p.causal = src_tok->causal;
    }
  }

  if (config_.barrier_loopback && dst.node == node_) {
    // §3.4 optimisation: same-NIC barrier message just sets the flag — no
    // wire, no SEND/RECV engines, only a short firmware hop.
    ++stats_.barrier_loopback_msgs;
    net::PacketPtr packet = net::make_packet(p);
    Packet& queued = *packet;  // the job takes the handle; valid until it runs
    queued.causal = engine_submit(
        McpEngine::kRdma, Segment::kFirmware, "loopback", config_.barrier_pe_cycles,
        [this, packet = std::move(packet)] { barrier_rx_in_order(*packet); }, queued.causal);
    return;
  }

  // A replica in a multidestination fan-out pays the per-copy header
  // rewrite on the SEND engine, not a full packet preparation. Retransmits
  // (timer or NACK driven) always pay full cost — they re-stage the packet.
  const std::int64_t tx_cost = mcast_copy ? config_.barrier_mcast_send_cycles : -1;
  switch (config_.barrier_reliability) {
    case BarrierReliability::kUnreliable:
      transmit(net::make_packet(p), tx_cost);
      break;
    case BarrierReliability::kSharedStream: {
      Connection& c = conn(p.dst_node);
      if (c.dead) {
        ++stats_.dead_peer_drops;
        break;
      }
      p.seq = c.next_send_seq++;
      c.reliability().sent_list.push_back(SentRecord{p, nullptr, sim_.now(), false});
      arm_retransmit(p.dst_node);
      transmit(net::make_packet(p), tx_cost);
      break;
    }
    case BarrierReliability::kSeparateAcks:
      barrier_enqueue_separate(std::move(p), tx_cost);
      break;
  }
}

// --- Completion ---------------------------------------------------------------------------------

void Nic::barrier_complete(PortId local_port) {
  PortState& ps = port(local_port);
  BarrierToken* tok = ps.active_barrier.get();
  assert(tok != nullptr);
  tok->completed = true;
  ++stats_.barriers_completed;
  const std::uint32_t epoch = tok->epoch;
  // Epoch monotonicity: even under faults (drops, retransmits, late NACK
  // resends) a port must never re-complete an old epoch or complete out of
  // order — the GM layer assigns epochs sequentially per port.
  NICBAR_CHECK(static_cast<std::int64_t>(epoch) > ps.last_completed_epoch, "nic.barrier",
               sim_.now(), "port %u: completed epoch %u after already completing epoch %lld",
               local_port, epoch, static_cast<long long>(ps.last_completed_epoch));
  ps.last_completed_epoch = static_cast<std::int64_t>(epoch);
  // Keep the completed token for §3.2 late-NACK resends.
  ps.last_barrier = std::move(ps.active_barrier);

  // RDMA the completion token to the host; the completion event carries the
  // DMA's own span.
  tok->causal = engine_submit(
      McpEngine::kRdma, Segment::kRdma, "rdma_setup", config_.rdma_setup_cycles,
      [this, local_port, epoch] {
        const sim::Duration dma =
            config_.pci_setup + sim::transfer_time(8, config_.pci_bandwidth_mbps);
        const BarrierToken* t = port(local_port).last_barrier.get();
        pci_submit(Segment::kRdma, "rdma_dma", dma,
                   t != nullptr && t->epoch == epoch ? t->causal : 0,
                   [this, local_port, epoch](SpanId span) {
                     PortState& p = port(local_port);
                     if (p.barrier_buffers > 0) --p.barrier_buffers;
                     GmEvent ev;
                     ev.type = GmEventType::kBarrierComplete;
                     ev.barrier_epoch = epoch;
                     ev.causal = span;
                     push_event(local_port, ev);
                   });
      },
      tok->causal);
}

// --- Closed-port handling (§3.2) -------------------------------------------------------------------

void Nic::barrier_closed_port_arrival(const Packet& p) {
  ++stats_.closed_port_drops;
  switch (config_.closed_port_policy) {
    case ClosedPortPolicy::kClearOnOpen:
      // Naive: record as if the port were open; open_port() wipes records.
      barrier_record(p, false);
      break;
    case ClosedPortPolicy::kRejectClosed:
      barrier_send_nack(p);
      break;
    case ClosedPortPolicy::kRecordThenRejectOnOpen:
      barrier_record(p, true);
      break;
  }
}

void Nic::barrier_send_nack(const Packet& original) {
  Packet n;
  n.type = PacketType::kBarrierNack;
  n.src_node = node_;
  n.src_port = original.dst_port;
  n.dst_node = original.src_node;
  n.dst_port = original.src_port;
  n.nacked_type = original.type;
  n.barrier_epoch = original.barrier_epoch;
  ++stats_.barrier_nacks_sent;
  send_control(n);
}

void Nic::flush_closed_port_records(PortId opened_port) {
  conns_.for_each([&](NodeId remote, Connection& c) {
    for (PortId rp = 0; rp < kMaxPorts; ++rp) {
      if (!c.bit(rp)) continue;
      const BarrierBitInfo& info = c.bit_info[rp];
      if (info.dst_port != opened_port) continue;
      switch (config_.closed_port_policy) {
        case ClosedPortPolicy::kClearOnOpen:
          clear_record(c, remote, rp);
          break;
        case ClosedPortPolicy::kRecordThenRejectOnOpen:
          if (info.for_closed_port) {
            clear_record(c, remote, rp);
            Packet original;
            original.type = info.type;
            original.src_node = remote;
            original.src_port = rp;
            original.dst_node = node_;
            original.dst_port = opened_port;
            original.barrier_epoch = info.epoch;
            barrier_send_nack(original);
          }
          break;
        case ClosedPortPolicy::kRejectClosed:
          break;  // rejects happened at arrival; nothing recorded for us
      }
    }
  });
}

void Nic::barrier_handle_nack(const Packet& p) {
  PortState& ps = port(p.dst_port);
  if (!ps.open) return;  // "endpoint has closed since": do not resend
  if (p.nacked_type == PacketType::kReduceUp || p.nacked_type == PacketType::kReduceDown) {
    (void)reduce_answer_nack(p);
    return;
  }
  const Endpoint peer{p.src_node, p.src_port};

  BarrierToken* tok = nullptr;
  if (ps.active_barrier && ps.active_barrier->epoch == p.barrier_epoch) {
    tok = ps.active_barrier.get();
  } else if (ps.last_barrier && ps.last_barrier->epoch == p.barrier_epoch) {
    tok = ps.last_barrier.get();
  }
  if (tok == nullptr) return;

  bool member = false;
  switch (p.nacked_type) {
    case PacketType::kBarrierPe: member = contains(tok->peers, peer); break;
    case PacketType::kBarrierGather: member = (tok->parent == peer); break;
    case PacketType::kBarrierBcast:
      // A hierarchical representative's release goes to `release`, not down
      // the tree; only the root sends it (non-reps never rebroadcast).
      member = tok->algorithm == BarrierAlgorithm::kHierarchical
                   ? (tok->is_root() && contains(tok->release, peer))
                   : contains(tok->children, peer);
      break;
    default: break;
  }
  if (!member) return;

  ++stats_.barrier_resends;
  const PortId local_port = p.dst_port;
  const PacketType type = p.nacked_type;
  const std::uint32_t epoch = p.barrier_epoch;
  sim_.schedule_in(config_.barrier_resend_delay, [this, local_port, peer, type, epoch] {
    if (!port(local_port).open) return;
    barrier_send(local_port, peer, type, epoch);
  });
}

// --- Separate barrier reliability (§3.3 option 2 / §4.4) ---------------------------------------------

void Nic::barrier_enqueue_separate(Packet p, std::int64_t tx_cost) {
  Connection& c = conn(p.dst_node);
  if (c.dead) {
    ++stats_.dead_peer_drops;
    return;
  }
  p.barrier_seq = c.next_barrier_send_seq++;
  c.reliability().barrier_sent_list.push_back(SentRecord{p, nullptr, sim_.now(), false});
  arm_barrier_retransmit(p.dst_node);
  transmit(net::make_packet(p), tx_cost);
}

void Nic::barrier_recv_separate(net::PacketPtr packet) {
  // The job below takes the handle; `p` stays valid until it runs.
  Packet& p = *packet;
  Connection& c = conn(p.src_node);
  Packet ack;
  ack.type = PacketType::kBarrierAck;
  ack.src_node = node_;
  ack.dst_node = p.src_node;

  if (p.barrier_seq == c.next_expected_barrier_seq) {
    ++c.next_expected_barrier_seq;
    if (c.rel) c.rel->barrier_nack_outstanding = false;
    ack.ack = c.next_expected_barrier_seq - 1;
    send_control(ack);
    p.causal = engine_submit(
        McpEngine::kRdma, Segment::kFirmware, "barrier_advance", barrier_rx_cost(p),
        [this, packet = std::move(packet)] { barrier_rx_in_order(*packet); }, p.causal);
  } else if (p.barrier_seq < c.next_expected_barrier_seq) {
    ++stats_.duplicates_dropped;
    ack.ack = c.next_expected_barrier_seq - 1;  // re-ack
    send_control(ack);
  } else {
    // Out of order: drop; the cumulative ack + sender timer recover it.
    ++stats_.out_of_order_dropped;
    ConnectionReliability& r = c.reliability();
    if (!r.barrier_nack_outstanding) {
      r.barrier_nack_outstanding = true;
      ack.ack = c.next_expected_barrier_seq - 1;
      send_control(ack);
    }
  }
}

void Nic::barrier_recv_barrier_ack(const Packet& p) {
  ++stats_.acks_received;
  Connection& conn_state = conn(p.src_node);
  if (!conn_state.rel) return;  // nothing was ever sent on this stream
  ConnectionReliability& c = *conn_state.rel;
  bool retired = false;
  bool sampled = false;
  while (!c.barrier_sent_list.empty() &&
         c.barrier_sent_list.front().packet.barrier_seq <= p.ack) {
    const SentRecord& rec = c.barrier_sent_list.front();
    // The barrier stream shares the connection's RTO estimator — same
    // physical path, so its samples are just as good (Karn's rule applies).
    if (!sampled && !rec.retransmitted) {
      sample_rtt(c, sim_.now() - rec.first_sent);
      sampled = true;
    }
    c.barrier_sent_list.pop_front();
    retired = true;
  }
  if (retired) {
    c.barrier_retransmissions = 0;
    c.backoff = 0;
    sim_.cancel(c.barrier_retransmit_timer);
    if (!c.barrier_sent_list.empty()) arm_barrier_retransmit(p.src_node);
  }
}

void Nic::arm_barrier_retransmit(NodeId remote) {
  Connection& conn_state = conn(remote);
  ConnectionReliability& c = conn_state.reliability();
  sim_.cancel(c.barrier_retransmit_timer);
  if (crashed_ || conn_state.dead) return;
  c.barrier_retransmit_timer = sim_.schedule_in(current_rto(c), [this, remote] {
    ConnectionReliability& cc = conn(remote).reliability();
    if (cc.barrier_sent_list.empty()) return;
    ++stats_.retransmit_timeouts;
    if (++cc.barrier_retransmissions > config_.max_retransmissions) {
      declare_peer_dead(remote);
      return;
    }
    if (config_.adaptive_rto) {
      ++cc.backoff;
      ++stats_.rto_backoffs;
    }
    barrier_retransmit_all(remote);
  });
}

void Nic::barrier_retransmit_all(NodeId remote) {
  ConnectionReliability& c = conn(remote).reliability();
  for (SentRecord& rec : c.barrier_sent_list) {
    rec.retransmitted = true;
    ++stats_.retransmissions;
    transmit(net::make_packet(rec.packet));
  }
  if (!c.barrier_sent_list.empty()) arm_barrier_retransmit(remote);
}

// --- Host abort (deadline / peer death) ---------------------------------------------------------

void Nic::cancel_barrier(PortId local_port) {
  PortState& ps = port(local_port);
  if (ps.active_barrier == nullptr || ps.active_barrier->completed) return;
  ++stats_.barriers_cancelled;
  // Discard the parked token; whatever this member already contributed may
  // still complete peers, but no completion event will be raised here (and
  // any in-flight one is filtered by its epoch on the host side).
  ps.active_barrier.reset();
}

}  // namespace nicbar::nic
