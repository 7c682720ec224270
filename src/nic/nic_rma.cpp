// One-sided RMA firmware (the rma:: layer's NIC half).
//
// RMA operations ride the ordinary sequenced connection stream (kData-class
// reliability: go-back-N, duplicate suppression), so per-(initiator, target)
// ops commit in posting order, exactly once — the delivery-ordering guarantee
// the rma:: API documents and tests pin. Unlike data messages they terminate
// in the firmware:
//
//   put  — rma_put_cycles on the processor, then the NIC->host DMA of the
//          word over the shared PCI bus (FIFO, so put->put order per target
//          survives end-to-end), then the segment write.
//   get  — rma_get_cycles, then a host-memory read over PCI, then the reply.
//   cas  — the modeled on-NIC atomic: the segment word is mirrored in NIC
//          SRAM, so compare-exchange happens at the firmware instant on the
//          single LANai processor — concurrent CAS from any number of
//          initiators serialise there and are linearizable by construction.
//          (CAS-vs-put ordering on the *same* word is consequently not
//          defined; the rma:: layer keeps atomics and flag words separate.)
//
// Every op is answered with a kRmaReply on the reverse sequenced stream (the
// remote completion); the initiator's RmaSink hears about it after
// rma_reply_cycles. Ops arriving for a segment that has not registered yet
// are parked and flushed in arrival order by rma_register — registration
// races are expected (symmetric construction is not synchronized), not
// errors.
#include <cassert>
#include <utility>

#include "nic/nic.hpp"

namespace nicbar::nic {

using net::Packet;
using net::PacketType;

void Nic::post_rma_token(RmaToken token) {
  ++stats_.rma_ops_posted;
  engine_submit(
      McpEngine::kSdma, Segment::kSdma, "rma_detect+setup",
      config_.sdma_detect_cycles + config_.sdma_setup_cycles,
      [this, token]() mutable {
        auto prepare = [this, token]() mutable {
          engine_submit(McpEngine::kSdma, Segment::kSdma, "rma_prepare",
                        config_.rma_prepare_cycles,
                        [this, token]() mutable {
                          Packet p;
                          switch (token.kind) {
                            case RmaOpKind::kPut: p.type = PacketType::kRmaPut; break;
                            case RmaOpKind::kGet: p.type = PacketType::kRmaGet; break;
                            case RmaOpKind::kCas: p.type = PacketType::kRmaCas; break;
                          }
                          p.src_node = node_;
                          p.src_port = token.src_port;
                          p.dst_node = token.dst.node;
                          p.dst_port = token.dst.port;
                          p.payload_bytes = config_.rma_payload_bytes;
                          p.rma_segment = token.segment;
                          p.rma_index = token.index;
                          p.rma_op = token.op_id;
                          p.value = token.value;
                          p.rma_expected = token.expected;
                          enqueue_reliable(p, nullptr);
                        });
        };
        if (token.kind == RmaOpKind::kPut) {
          // Puts carry a host word down over PCI; get/cas descriptors fit in
          // the token the SDMA poll loop already read.
          const sim::Duration dma =
              config_.pci_setup +
              sim::transfer_time(config_.rma_payload_bytes, config_.pci_bandwidth_mbps);
          pci_submit(Segment::kSdma, "rma_sdma_dma", dma, 0, std::move(prepare));
        } else {
          prepare();
        }
      });
}

void Nic::rma_register(PortId p, std::uint64_t segment, RmaMemory* mem) {
  PortState& ps = port(p);
  ps.rma_segments[segment] = mem;
  // Flush ops that raced ahead of registration, preserving arrival order:
  // one pass rotates the queue, re-parking the ops for other segments.
  for (std::size_t n = ps.rma_parked.size(); n > 0; --n) {
    Packet parked = std::move(ps.rma_parked.front());
    ps.rma_parked.pop_front();
    if (parked.rma_segment == segment) {
      rma_rx_in_order(net::make_packet(parked));
    } else {
      ps.rma_parked.push_back(std::move(parked));
    }
  }
}

void Nic::set_rma_sink(PortId p, RmaSink* sink) { port(p).rma_sink = sink; }

void Nic::rma_rx_in_order(net::PacketPtr packet) {
  Packet& p = *packet;  // the job takes the handle; valid until it runs
  if (p.type == PacketType::kRmaReply) {
    engine_submit(McpEngine::kRdma, Segment::kFirmware, "rma_reply", config_.rma_reply_cycles,
                  [this, packet = std::move(packet)] { rma_absorb_reply(*packet); }, p.causal);
    return;
  }
  std::int64_t cost = config_.rma_put_cycles;
  if (p.type == PacketType::kRmaGet) cost = config_.rma_get_cycles;
  if (p.type == PacketType::kRmaCas) cost = config_.rma_cas_cycles;
  p.causal = engine_submit(
      McpEngine::kRdma, Segment::kFirmware, "rma_apply", cost,
      [this, packet = std::move(packet)]() mutable { rma_apply(std::move(packet)); }, p.causal);
}

void Nic::rma_apply(net::PacketPtr packet) {
  const Packet& p = *packet;  // a put/get job takes the handle; valid until it runs
  PortState& ps = port(p.dst_port);
  if (!ps.open) {
    ++stats_.closed_port_drops;
    ++stats_.rma_rejected;
    rma_reply(p, 0, false);
    return;
  }
  auto seg = ps.rma_segments.find(p.rma_segment);
  if (seg == ps.rma_segments.end()) {
    // Registration race: the initiator's segment is constructed but ours is
    // not yet. Park; rma_register flushes in arrival order.
    ++stats_.rma_parked;
    ps.rma_parked.push_back(p);
    return;
  }
  RmaMemory* mem = seg->second;
  if (p.rma_index >= mem->size()) {
    ++stats_.rma_rejected;
    rma_reply(p, 0, false);
    return;
  }
  switch (p.type) {
    case PacketType::kRmaPut: {
      // NIC->host DMA of the word; the shared PCI bus is FIFO, so puts to
      // one target commit in stream order.
      const sim::Duration dma =
          config_.pci_setup +
          sim::transfer_time(p.payload_bytes, config_.pci_bandwidth_mbps);
      pci_submit(Segment::kRdma, "rma_dma", dma, p.causal,
                 [this, packet = std::move(packet), mem] {
                   ++stats_.rma_puts_applied;
                   mem->write(packet->rma_index, packet->value);
                   rma_reply(*packet, packet->value, true);
                 });
      break;
    }
    case PacketType::kRmaGet: {
      // Host-memory read over PCI, then the fetched word goes back.
      const sim::Duration dma =
          config_.pci_setup +
          sim::transfer_time(p.payload_bytes, config_.pci_bandwidth_mbps);
      pci_submit(Segment::kRdma, "rma_dma", dma, p.causal,
                 [this, packet = std::move(packet), mem] {
                   ++stats_.rma_gets_served;
                   rma_reply(*packet, mem->read(packet->rma_index), true);
                 });
      break;
    }
    case PacketType::kRmaCas: {
      // The on-NIC atomic: applied here, at the firmware instant, with no
      // PCI crossing — the single processor is the serialisation point.
      ++stats_.rma_cas_applied;
      const std::int64_t prior =
          mem->compare_exchange(p.rma_index, p.rma_expected, p.value);
      rma_reply(p, prior, true);
      break;
    }
    default:
      assert(false && "rma_apply on a non-RMA packet");
      break;
  }
}

void Nic::rma_reply(const Packet& request, std::int64_t value, bool ok) {
  Packet r;
  r.type = PacketType::kRmaReply;
  r.src_node = node_;
  r.src_port = request.dst_port;
  r.dst_node = request.src_node;
  r.dst_port = request.src_port;
  r.payload_bytes = config_.rma_payload_bytes;
  r.rma_segment = request.rma_segment;
  r.rma_index = request.rma_index;
  r.rma_op = request.rma_op;
  r.value = value;
  r.rma_ok = ok;
  enqueue_reliable(r, nullptr);
}

void Nic::rma_absorb_reply(const Packet& p) {
  PortState& ps = port(p.dst_port);
  if (!ps.open || ps.rma_sink == nullptr) {
    ++stats_.rma_rejected;
    return;
  }
  ++stats_.rma_replies;
  ps.rma_sink->rma_complete(p.rma_op, p.value, p.rma_ok);
}

}  // namespace nicbar::nic
