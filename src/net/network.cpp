#include "net/network.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/causal.hpp"

namespace nicbar::net {

Link* Network::new_link(std::string name, LinkEnd tail, LinkEnd head) {
  links_.push_back(std::make_unique<Link>(sim_, link_params_, std::move(name)));
  Link* l = links_.back().get();
  // The uid doubles as the delivery ordering key's second word, so it must
  // be a pure function of construction order (which is deterministic).
  l->set_uid(static_cast<std::uint32_t>(links_.size() - 1));
  link_tail_.push_back(tail);
  link_head_.push_back(head);
  return l;
}

NodeId Network::add_terminal() {
  assert(!finalized_);
  terminals_.push_back(Terminal{});
  packet_seq_.push_back(0);
  return static_cast<NodeId>(terminals_.size() - 1);
}

int Network::add_switch(std::size_t num_ports) {
  assert(!finalized_);
  if (num_ports > kMaxSwitchPorts) {
    throw std::invalid_argument("a " + std::to_string(num_ports) + "-port switch exceeds the " +
                                std::to_string(kMaxSwitchPorts) +
                                "-port limit of a one-byte source route");
  }
  const int id = static_cast<int>(switches_.size());
  switches_.push_back(std::make_unique<Switch>(sim_, id, num_ports, switch_params_));
  return id;
}

void Network::connect_terminal(NodeId terminal, int switch_id, std::size_t port) {
  assert(!finalized_);
  Terminal& t = terminals_.at(terminal);
  Switch& sw = *switches_.at(static_cast<std::size_t>(switch_id));
  if (t.up != nullptr) throw std::logic_error("terminal already connected");

  const LinkEnd term_end{false, static_cast<std::int64_t>(terminal)};
  const LinkEnd sw_end{true, switch_id};
  // Names are built by append: GCC 12 at -O3 misreports "literal" +
  // std::to_string(...) as an overlapping copy (-Wrestrict).
  const std::string t_name = std::string("t").append(std::to_string(terminal));
  const std::string sw_name = std::string("sw").append(std::to_string(switch_id));
  t.up = new_link(std::string(t_name).append("->").append(sw_name), term_end, sw_end);
  t.down = new_link(std::string(sw_name).append("->").append(t_name), sw_end, term_end);

  // Uplink delivers into the switch; downlink hangs off the switch port.
  Switch* swp = &sw;
  t.up->set_deliver([swp](PacketPtr p) { swp->accept(std::move(p)); });
  sw.attach_out(port, t.down);
  NodeId tid = terminal;
  Network* self = this;
  t.down->set_deliver([self, tid](PacketPtr p) {
    Terminal& dst = self->terminals_.at(tid);
    if (dst.deliver) dst.deliver(std::move(p));
  });
}

void Network::connect_switches(int switch_a, std::size_t port_a, int switch_b,
                               std::size_t port_b) {
  assert(!finalized_);
  Switch& a = *switches_.at(static_cast<std::size_t>(switch_a));
  Switch& b = *switches_.at(static_cast<std::size_t>(switch_b));

  const LinkEnd a_end{true, switch_a};
  const LinkEnd b_end{true, switch_b};
  Link* ab = new_link("sw" + std::to_string(switch_a) + "->sw" + std::to_string(switch_b),
                      a_end, b_end);
  Link* ba = new_link("sw" + std::to_string(switch_b) + "->sw" + std::to_string(switch_a),
                      b_end, a_end);
  a.attach_out(port_a, ab);
  b.attach_out(port_b, ba);
  Switch* bp = &b;
  Switch* ap = &a;
  ab->set_deliver([bp](PacketPtr p) { bp->accept(std::move(p)); });
  ba->set_deliver([ap](PacketPtr p) { ap->accept(std::move(p)); });
}

void Network::finalize(RouteFn route) {
  route_ = std::move(route);
  finalized_ = true;
}

void Network::set_deliver(NodeId terminal, DeliverFn fn) {
  terminals_.at(terminal).deliver = std::move(fn);
}

Route Network::route(NodeId src, NodeId dst) const {
  assert(finalized_);
  if (dst >= terminals_.size()) {
    throw std::out_of_range("no terminal " + std::to_string(dst) + " to route to");
  }
  if (src == dst) return {};
  Route r = route_(src, dst);
  if (r.empty()) throw std::logic_error("no route between terminals");
  return r;
}

void Network::set_causal(sim::causal::CausalTracer* causal) {
  for (auto& l : links_) l->set_causal(causal);
  for (auto& s : switches_) s->set_causal(causal);
  if (causal == nullptr) return;
  causal->fabric = {terminals_.size(), {}, switches_.size()};
  for (const auto& l : links_) causal->fabric.links.push_back(l->name());
}

sim::Duration Network::path_time(NodeId src, NodeId dst, std::int64_t payload_bytes) const {
  if (src == dst) return sim::Duration{0};
  const auto hops = static_cast<std::int64_t>(route(src, dst).size());  // switches traversed
  // The packet crosses hops+1 links, each carrying the whole route.
  const sim::Duration link =
      sim::transfer_time(link_params_.header_bytes + hops + payload_bytes,
                         link_params_.bandwidth_mbps) +
      link_params_.propagation;
  return link * (hops + 1) + switch_params_.routing_latency * hops;
}

sim::SimTime Network::inject(PacketPtr p, sim::SimTime at) {
  assert(finalized_);
  Terminal& t = terminals_.at(p->src_node);
  p->route = route(p->src_node, p->dst_node);
  p->hop = 0;
  p->injected_at = at;
  if (p->id == 0) p->id = allocate_packet_id(p->src_node);
  injected_.fetch_add(1, std::memory_order_relaxed);
  return t.up->transmit(std::move(p), at);
}

sim::Duration Network::apply_partitioning(sim::pdes::PartitionedSimulator& pdes,
                                          const PartitionMap& map) {
  assert(finalized_);
  for (std::size_t s = 0; s < switches_.size(); ++s) {
    switches_[s]->rebind_sim(pdes.lane(
        static_cast<std::size_t>(map.switch_partition.at(s))));
  }
  sim::Duration min_cross{0};
  bool any_cross = false;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    Link* l = links_[i].get();
    const int tail = link_tail_[i].partition(map);
    const int head = link_head_[i].partition(map);
    // A link belongs to its *transmitting* element's lane: transmit() and
    // the wire server run there. Only the delivery crosses over.
    l->rebind_sim(pdes.lane(static_cast<std::size_t>(tail)));
    if (tail == head) continue;
    sim::pdes::PartitionedSimulator* p = &pdes;
    l->set_remote_post([p, tail, head](sim::SimTime at, sim::EventKey key,
                                       sim::EventQueue::Action action) {
      p->post(static_cast<std::size_t>(tail), static_cast<std::size_t>(head), at, key,
              std::move(action));
    });
    if (!any_cross || l->params().propagation < min_cross) {
      min_cross = l->params().propagation;
      any_cross = true;
    }
  }
  return min_cross;
}

}  // namespace nicbar::net
