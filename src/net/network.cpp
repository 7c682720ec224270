#include "net/network.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>

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
  const int id = static_cast<int>(switches_.size());
  switches_.push_back(std::make_unique<Switch>(sim_, id, num_ports, switch_params_));
  switch_adj_.emplace_back();
  return id;
}

void Network::connect_terminal(NodeId terminal, int switch_id, std::size_t port) {
  assert(!finalized_);
  Terminal& t = terminals_.at(terminal);
  Switch& sw = *switches_.at(static_cast<std::size_t>(switch_id));
  if (t.up != nullptr) throw std::logic_error("terminal already connected");

  t.attached_switch = switch_id;
  t.attached_port = port;
  const LinkEnd term_end{false, static_cast<std::int64_t>(terminal)};
  const LinkEnd sw_end{true, switch_id};
  t.up = new_link("t" + std::to_string(terminal) + "->sw" + std::to_string(switch_id),
                  term_end, sw_end);
  t.down = new_link("sw" + std::to_string(switch_id) + "->t" + std::to_string(terminal),
                    sw_end, term_end);

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

  switch_adj_[static_cast<std::size_t>(switch_a)].push_back(
      SwitchEdge{switch_b, static_cast<std::uint8_t>(port_a)});
  switch_adj_[static_cast<std::size_t>(switch_b)].push_back(
      SwitchEdge{switch_a, static_cast<std::uint8_t>(port_b)});
}

void Network::finalize() {
  if (route_provider_) {
    // Closed-form routing: no all-pairs table. At 4096 terminals the BFS
    // table alone would hold 16.7M route vectors; the provider computes
    // each pair on demand and route() memoises the ones actually used.
    finalized_ = true;
    return;
  }
  const std::size_t n = terminals_.size();
  const std::size_t s = switches_.size();
  routes_.assign(n * n, {});

  // BFS over the switch graph from every switch: parent pointers give the
  // first switch-hop and the output port used to reach each switch.
  for (std::size_t src_sw = 0; src_sw < s; ++src_sw) {
    std::vector<int> parent(s, -1);
    std::vector<std::uint8_t> via_port(s, 0);
    std::vector<bool> seen(s, false);
    std::deque<int> frontier;
    frontier.push_back(static_cast<int>(src_sw));
    seen[src_sw] = true;
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop_front();
      for (const SwitchEdge& e : switch_adj_[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(e.to_switch)]) continue;
        seen[static_cast<std::size_t>(e.to_switch)] = true;
        parent[static_cast<std::size_t>(e.to_switch)] = u;
        via_port[static_cast<std::size_t>(e.to_switch)] = e.out_port;
        frontier.push_back(e.to_switch);
      }
    }

    // Build routes for all terminal pairs whose source hangs off src_sw.
    for (NodeId a = 0; a < n; ++a) {
      if (terminals_[a].attached_switch != static_cast<int>(src_sw)) continue;
      for (NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        const Terminal& tb = terminals_[b];
        if (tb.attached_switch < 0) continue;
        if (!seen[static_cast<std::size_t>(tb.attached_switch)]) continue;  // unreachable

        // Walk dst_switch -> src_switch via parents, collecting the output
        // port taken *leaving* each switch on the forward path.
        std::vector<std::uint8_t> rev;
        int cur = tb.attached_switch;
        while (cur != static_cast<int>(src_sw)) {
          rev.push_back(via_port[static_cast<std::size_t>(cur)]);
          cur = parent[static_cast<std::size_t>(cur)];
        }
        std::vector<std::uint8_t>& r = routes_[a * n + b];
        r.assign(rev.rbegin(), rev.rend());
        r.push_back(static_cast<std::uint8_t>(tb.attached_port));  // exit to terminal
      }
    }
  }
  finalized_ = true;
}

void Network::set_deliver(NodeId terminal, DeliverFn fn) {
  terminals_.at(terminal).deliver = std::move(fn);
}

const std::vector<std::uint8_t>& Network::route(NodeId src, NodeId dst) const {
  assert(finalized_);
  if (route_provider_) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
    // Serialize cache insertion (lanes of a partitioned run route
    // concurrently); the node-stable reference outlives the lock.
    const std::lock_guard<std::mutex> lock(route_mu_);
    auto it = route_cache_.find(key);
    if (it == route_cache_.end()) {
      it = route_cache_.emplace(key, route_provider_(src, dst)).first;
    }
    const std::vector<std::uint8_t>& r = it->second;
    if (r.empty() && src != dst) throw std::logic_error("no route between terminals");
    return r;
  }
  const std::vector<std::uint8_t>& r = routes_.at(src * terminals_.size() + dst);
  if (r.empty() && src != dst) throw std::logic_error("no route between terminals");
  return r;
}

sim::Duration Network::path_time(NodeId src, NodeId dst, std::int64_t payload_bytes) const {
  if (src == dst) return sim::Duration{0};
  const std::size_t hops = route(src, dst).size();  // switches traversed
  sim::Duration t{0};
  // The packet crosses hops+1 links; the route shrinks by one byte per
  // switch, so link k carries (hops - k) remaining route bytes.
  for (std::size_t k = 0; k <= hops; ++k) {
    const std::int64_t bytes = link_params_.header_bytes +
                               static_cast<std::int64_t>(hops - k) + payload_bytes;
    t += sim::transfer_time(bytes, link_params_.bandwidth_mbps) + link_params_.propagation;
  }
  t += switch_params_.routing_latency * static_cast<std::int64_t>(hops);
  return t;
}

sim::SimTime Network::inject(PacketPtr p) {
  assert(finalized_);
  Terminal& t = terminals_.at(p->src_node);
  p->route = route(p->src_node, p->dst_node);
  p->hop = 0;
  // The uplink is bound to the injecting node's lane, so its clock — not
  // the build lane's — is the packet's entry timestamp.
  p->injected_at = t.up->sim().now();
  if (p->id == 0) p->id = allocate_packet_id(p->src_node);
  injected_.fetch_add(1, std::memory_order_relaxed);
  return t.up->transmit(std::move(p));
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
