// NIC-based reduction/allreduce firmware — the §8 future-work extension
// ("whether other collective communication operations, such as reductions
// ... could benefit from similar NIC-level implementations").
//
// Shape: a GB tree, exactly like the gather/broadcast barrier, but the
// gather phase *combines* child contributions on the NIC and the broadcast
// phase carries the root's final value back down. Unexpected kReduceUp/
// kReduceDown messages reuse the §3.1 per-connection bit record, with the
// carried value stored alongside the bit. The closed-port NACK machinery of
// §3.2 answers reduce types too (see reduce_answer_nack).
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "nic/nic.hpp"

namespace nicbar::nic {

using net::Packet;
using net::PacketType;

std::int64_t apply_reduce_op(ReduceOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kProd: return a * b;
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return b > a ? b : a;
    case ReduceOp::kBitAnd: return a & b;
    case ReduceOp::kBitOr: return a | b;
  }
  return a;
}

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kProd: return "prod";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kBitAnd: return "band";
    case ReduceOp::kBitOr: return "bor";
  }
  return "?";
}

void Nic::post_reduce_token(ReduceToken token) {
  // Same initiation cost model as a GB barrier plus the combining setup.
  const std::int64_t cycles = config_.sdma_detect_cycles + config_.barrier_init_cycles +
                              config_.barrier_gb_init_cycles;
  engine_submit(McpEngine::kSdma, Segment::kFirmware, "reduce_init", cycles,
                [this, token = std::move(token)]() mutable { reduce_start(std::move(token)); },
                0, 0, config_.sdma_detect_cycles);
}

void Nic::reduce_start(ReduceToken token) {
  PortState& ps = port(token.src_port);
  if (!ps.open) return;
  if (ps.active_reduce && !ps.active_reduce->completed) {
    throw std::logic_error("reduction already active on this port");
  }
  if (ps.active_barrier && !ps.active_barrier->completed) {
    // The unexpected-message bit record is shared between the barrier and
    // the reduction firmware; one collective at a time per port.
    throw std::logic_error("barrier active on this port; cannot start a reduction");
  }
  ++stats_.reduces_started;
  token.acc = token.contribution;
  const PortId p = token.src_port;
  ps.active_reduce = std::make_unique<ReduceToken>(std::move(token));
  reduce_check_children(p);
}

void Nic::reduce_rx_in_order(const Packet& p) {
  PortState& ps = port(p.dst_port);
  ReduceToken* tok = ps.active_reduce.get();
  const Endpoint src{p.src_node, p.src_port};

  switch (p.type) {
    case PacketType::kReduceUp:
      // Like GB gathers: record first (value included), then rescan.
      barrier_record(p, false);
      if (tok != nullptr && !tok->completed && !tok->up_sent) {
        reduce_check_children(p.dst_port);
      }
      break;

    case PacketType::kReduceDown:
      if (tok != nullptr && !tok->completed && tok->up_sent && tok->parent == src) {
        const std::int64_t result = p.value;
        reduce_complete(p.dst_port, result);
        ReduceToken* done = ps.last_reduce.get();
        for (const Endpoint& child : done->children) {
          reduce_send(p.dst_port, child, PacketType::kReduceDown, done->epoch, result);
        }
      } else {
        barrier_record(p, false);
      }
      break;

    default:
      assert(false && "non-reduce packet in reduce_rx_in_order");
  }
}

void Nic::reduce_check_children(PortId local_port) {
  PortState& ps = port(local_port);
  ReduceToken* tok = ps.active_reduce.get();
  if (tok == nullptr || tok->completed || tok->up_sent) return;
  for (const Endpoint& child : tok->children) {
    const Connection& c = conn(child.node);
    if (!c.bit(child.port) || c.bit_info[child.port].type != PacketType::kReduceUp) return;
  }
  // All child partials present: combine and clear.
  for (const Endpoint& child : tok->children) {
    tok->acc = apply_reduce_op(tok->op, tok->acc, record_extra(child.node, child.port).value);
    clear_record(conn(child.node), child.node, child.port);
    engine_submit(McpEngine::kRdma, Segment::kFirmware, "combine",
                  config_.barrier_gb_cycles);  // per child
  }

  if (tok->is_root()) {
    const std::int64_t result = tok->acc;
    reduce_complete(local_port, result);
    ReduceToken* done = ps.last_reduce.get();
    for (const Endpoint& child : done->children) {
      reduce_send(local_port, child, PacketType::kReduceDown, done->epoch, result);
    }
    return;
  }
  tok->up_value = tok->acc;
  reduce_send(local_port, tok->parent, PacketType::kReduceUp, tok->epoch, tok->acc);
  tok->up_sent = true;
  // The parent's result may already be recorded (§3.2 resend interleavings).
  Connection& pc = conn(tok->parent.node);
  if (pc.bit(tok->parent.port) &&
      pc.bit_info[tok->parent.port].type == PacketType::kReduceDown) {
    const std::int64_t result = record_extra(tok->parent.node, tok->parent.port).value;
    clear_record(pc, tok->parent.node, tok->parent.port);
    reduce_complete(local_port, result);
    ReduceToken* done = ps.last_reduce.get();
    for (const Endpoint& child : done->children) {
      reduce_send(local_port, child, PacketType::kReduceDown, done->epoch, result);
    }
  }
}

void Nic::reduce_send(PortId local_port, Endpoint dst, PacketType type, std::uint32_t epoch,
                      std::int64_t value) {
  Packet p;
  p.type = type;
  p.src_node = node_;
  p.src_port = local_port;
  p.dst_node = dst.node;
  p.dst_port = dst.port;
  p.payload_bytes = config_.barrier_payload_bytes + 8;  // + the 64-bit value
  p.barrier_epoch = epoch;
  p.value = value;
  ++stats_.barrier_packets_sent;

  if (config_.barrier_loopback && dst.node == node_) {
    ++stats_.barrier_loopback_msgs;
    engine_submit(McpEngine::kRdma, Segment::kFirmware, "loopback", config_.barrier_gb_cycles,
                  [this, packet = net::make_packet(p)] {
                    ++stats_.barrier_packets_received;
                    if (!port(packet->dst_port).open) {
                      barrier_closed_port_arrival(*packet);
                      return;
                    }
                    reduce_rx_in_order(*packet);
                  });
    return;
  }

  switch (config_.barrier_reliability) {
    case BarrierReliability::kUnreliable:
      transmit(net::make_packet(p));
      break;
    case BarrierReliability::kSharedStream: {
      Connection& c = conn(p.dst_node);
      p.seq = c.next_send_seq++;
      c.reliability().sent_list.push_back(SentRecord{p, nullptr});
      arm_retransmit(p.dst_node);
      transmit(net::make_packet(p));
      break;
    }
    case BarrierReliability::kSeparateAcks:
      // Reductions share the barrier's dedicated ack stream.
      barrier_enqueue_separate(std::move(p));
      break;
  }
}

void Nic::reduce_complete(PortId local_port, std::int64_t result) {
  PortState& ps = port(local_port);
  ReduceToken* tok = ps.active_reduce.get();
  assert(tok != nullptr);
  tok->completed = true;
  tok->acc = result;  // final value (used for kReduceDown resends)
  ++stats_.reduces_completed;
  const std::uint32_t epoch = tok->epoch;
  ps.last_reduce = std::move(ps.active_reduce);

  engine_submit(McpEngine::kRdma, Segment::kRdma, "rdma_setup", config_.rdma_setup_cycles,
                [this, local_port, epoch, result] {
    const sim::Duration dma =
        config_.pci_setup + sim::transfer_time(16, config_.pci_bandwidth_mbps);
    pci_submit(Segment::kRdma, "rdma_dma", dma, 0, [this, local_port, epoch, result] {
      PortState& p = port(local_port);
      if (p.barrier_buffers > 0) --p.barrier_buffers;
      GmEvent ev;
      ev.type = GmEventType::kReduceComplete;
      ev.barrier_epoch = epoch;
      ev.value = result;
      push_event(local_port, ev);
    });
  });
}

bool Nic::reduce_answer_nack(const Packet& p) {
  PortState& ps = port(p.dst_port);
  const Endpoint peer{p.src_node, p.src_port};
  ReduceToken* tok = nullptr;
  if (ps.active_reduce && ps.active_reduce->epoch == p.barrier_epoch) {
    tok = ps.active_reduce.get();
  } else if (ps.last_reduce && ps.last_reduce->epoch == p.barrier_epoch) {
    tok = ps.last_reduce.get();
  }
  if (tok == nullptr) return false;

  std::int64_t value = 0;
  if (p.nacked_type == PacketType::kReduceUp) {
    if (!(tok->parent == peer) || !tok->up_sent) return false;
    value = tok->up_value;
  } else {
    bool member = false;
    for (const Endpoint& c : tok->children) {
      if (c == peer) member = true;
    }
    if (!member || !tok->completed) return false;
    value = tok->acc;  // the final result
  }

  ++stats_.barrier_resends;
  const PortId local_port = p.dst_port;
  const PacketType type = p.nacked_type;
  const std::uint32_t epoch = p.barrier_epoch;
  sim_.schedule_in(config_.barrier_resend_delay, [this, local_port, peer, type, epoch, value] {
    if (!port(local_port).open) return;
    reduce_send(local_port, peer, type, epoch, value);
  });
  return true;
}

}  // namespace nicbar::nic
