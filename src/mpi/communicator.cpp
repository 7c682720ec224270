#include "mpi/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/check.hpp"

namespace nicbar::mpi {

using nic::GmEvent;
using nic::GmEventType;

namespace {

// split() exchanges (color, key) pairs as one packed immediate.
std::int64_t encode_split(int color, int key) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(color)) << 32) |
      static_cast<std::uint32_t>(key));
}
int split_color(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(v) >> 32);
}
int split_key(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(v) & 0xffffffffull);
}

}  // namespace

Communicator::Communicator(gm::Port& port, const std::vector<gm::Endpoint>& group,
                           CommConfig config)
    : Communicator(port, coll::MemberList::of(group), config) {}

Communicator::Communicator(gm::Port& port, std::shared_ptr<const coll::MemberList> group,
                           CommConfig config)
    : port_(port), group_(std::move(group)), config_(config) {
  rank_ = rank_of(port_.endpoint());
  if (rank_ < 0) throw std::invalid_argument("port's endpoint is not in the communicator");
  // The MPI layer's matching/progress cost applies to every GM call made
  // through this port — that is what makes host-based collectives pay
  // log2(N) times the overhead while NIC-based ones pay it ~once (Eq. 3).
  port_.set_layer_overhead(config_.per_call_overhead);

  coll::BarrierSpec bspec;
  bspec.location = config_.collective_location;
  bspec.algorithm = config_.barrier_algorithm;
  bspec.gb_dimension = config_.gb_dimension;
  bspec.deadline = config_.barrier_deadline;
  barrier_ = std::make_unique<coll::BarrierMember>(port_, group_, bspec);
  reducer_ = std::make_unique<coll::ReduceMember>(port_, group_, config_.collective_location,
                                                  nic::ReduceOp::kSum, config_.gb_dimension);

  // The collectives and this layer share one event stream: anything a
  // collective drains that is not its own gets funnelled back here, and
  // vice versa (recv() forwards completions into the members).
  auto sink = [this](const GmEvent& ev) {
    switch (ev.type) {
      case GmEventType::kRecv: {
        if (ev.tag == nic::kGroupCtrlMsgTag) {
          // A child group's handshake message drained during one of our
          // collectives; its buffer is repaid at the next GM call we make.
          ++owed_buffers_;
          route_ctrl(ev);
          break;
        }
        const int src = rank_of(ev.peer);
        if (src >= 0) pending_[src].push_back(Message{src, ev.bytes, ev.tag, ev.value});
        break;
      }
      case GmEventType::kBarrierComplete:
        barrier_->note_completion();
        break;
      case GmEventType::kReduceComplete:
        reducer_->note_result(ev.value);
        break;
      case GmEventType::kPeerDead:
        note_peer_dead(ev.peer.node);
        break;
      case GmEventType::kSent:
        break;
    }
  };
  barrier_->set_event_sink(sink);
  reducer_->set_event_sink(sink);
}

Communicator::Communicator(gm::Port& port, std::shared_ptr<const coll::MemberList> group,
                           CommConfig config, Communicator* parent, std::uint64_t group_id)
    : port_(port),
      group_(std::move(group)),
      config_(config),
      parent_(parent),
      root_(parent->root_),
      group_id_(group_id) {
  rank_ = rank_of(port_.endpoint());
  if (rank_ < 0) throw std::invalid_argument("port's endpoint is not in the communicator");

  coll::GroupConfig gc;
  gc.id = group_id;
  gc.algorithm = config_.barrier_algorithm;
  gc.gb_dimension = config_.gb_dimension;
  gc.deadline = config_.barrier_deadline;
  // The barrier deadline doubles as the handshake backstop: a coordinator
  // waiting on a crashed member may have no traffic in flight to it, so no
  // kPeerDead ever arrives — only this deadline ends the wait.
  gc.ctrl_deadline = config_.barrier_deadline;
  managed_ = std::make_unique<coll::GroupMember>(port_, group_, gc);
  reducer_ = std::make_unique<coll::ReduceMember>(port_, group_, config_.collective_location,
                                                  nic::ReduceOp::kSum, config_.gb_dimension);

  auto sink = [this](const GmEvent& ev) { on_foreign_event(ev); };
  managed_->set_event_sink(sink);
  reducer_->set_event_sink(sink);
  root_->register_group(managed_.get());
}

Communicator::~Communicator() {
  if (managed_ != nullptr && root_ != this) root_->unregister_group(managed_->id());
}

void Communicator::on_foreign_event(const GmEvent& ev) {
  switch (ev.type) {
    case GmEventType::kRecv:
      if (ev.tag == nic::kGroupCtrlMsgTag) {
        ++owed_buffers_;
        root_->route_ctrl(ev);
        break;
      }
      {
        const int src = rank_of(ev.peer);
        if (src >= 0) {
          pending_[src].push_back(Message{src, ev.bytes, ev.tag, ev.value});
          break;
        }
      }
      // Not addressed to this child group: parent-level traffic.
      if (parent_ != nullptr) parent_->on_foreign_event(ev);
      break;
    case GmEventType::kBarrierComplete:
      // The managed group's barriers consume their own completions inside
      // their waits; one surfacing here is a stale (cancelled-epoch) event.
      port_.count_stale_completion();
      break;
    case GmEventType::kReduceComplete:
      reducer_->note_result(ev.value);
      break;
    case GmEventType::kPeerDead:
      note_peer_dead(ev.peer.node);
      break;
    case GmEventType::kSent:
      break;
  }
}

void Communicator::route_ctrl(const GmEvent& ev) {
  const std::uint64_t gid = coll::ctrl_message_group(ev.value);
  auto it = child_groups_.find(gid);
  if (it != child_groups_.end()) {
    it->second->note_ctrl(ev);
    return;
  }
  // A peer finished its split() exchange before we did and its handshake
  // message overtook ours: park it until the group registers locally.
  unrouted_ctrl_.push_back(ev);
}

void Communicator::register_group(coll::GroupMember* g) {
  child_groups_[g->id()] = g;
  auto it = unrouted_ctrl_.begin();
  while (it != unrouted_ctrl_.end()) {
    if (coll::ctrl_message_group(it->value) == g->id()) {
      g->note_ctrl(*it);
      it = unrouted_ctrl_.erase(it);
    } else {
      ++it;
    }
  }
}

void Communicator::unregister_group(std::uint64_t id) { child_groups_.erase(id); }

int Communicator::rank_of(gm::Endpoint e) const {
  const std::optional<std::size_t> r = group_->rank_of(e);
  return r ? static_cast<int>(*r) : -1;
}

void Communicator::note_peer_dead(net::NodeId node) {
  if (barrier_ != nullptr) barrier_->note_peer_dead(node);
  if (managed_ != nullptr) managed_->note_peer_dead(node);
  if (group_->contains(node)) failed_ = true;
  // A dead node poisons every communicator that contains it, up the tree.
  if (parent_ != nullptr) parent_->note_peer_dead(node);
}

sim::Task Communicator::ensure_provisioned() {
  if (!provisioned_) {
    provisioned_ = true;
    for (int i = 0; i < 2 * size() + 2; ++i) {
      co_await port_.provide_receive_buffer(recv_buffer_bytes_);
    }
  }
  // Repay buffers consumed by sink-routed control messages (the sink itself
  // cannot co_await). Always 0 when split() is never used.
  while (owed_buffers_ > 0) {
    --owed_buffers_;
    co_await port_.provide_receive_buffer(recv_buffer_bytes_);
  }
}

sim::Task Communicator::send(int dst_rank, std::int64_t bytes, std::uint64_t tag,
                             std::int64_t value) {
  // Validate eagerly: a lazy coroutine would defer the throw until awaited.
  if (dst_rank < 0 || dst_rank >= size()) throw std::out_of_range("bad destination rank");
  return send_impl(dst_rank, bytes, tag, value);
}

sim::Task Communicator::send_impl(int dst_rank, std::int64_t bytes, std::uint64_t tag,
                                  std::int64_t value) {
  // per-GM-call layer cost is charged by the port itself
  co_await port_.send((*group_)[static_cast<std::size_t>(dst_rank)], bytes, tag, value);
}

sim::ValueTask<Message> Communicator::recv(int src_rank) {
  if (src_rank < 0 || src_rank >= size()) throw std::out_of_range("bad source rank");
  return recv_impl(src_rank);
}

sim::ValueTask<Message> Communicator::recv_impl(int src_rank) {
  co_await ensure_provisioned();
  // per-GM-call layer cost is charged by the port itself
  auto it = pending_.find(src_rank);
  if (it != pending_.end() && !it->second.empty()) {
    Message m = it->second.front();
    it->second.pop_front();
    co_return m;
  }
  for (;;) {
    const GmEvent ev = co_await port_.receive();
    switch (ev.type) {
      case GmEventType::kRecv: {
        co_await port_.provide_receive_buffer(recv_buffer_bytes_);
        if (ev.tag == nic::kGroupCtrlMsgTag) {
          root_->route_ctrl(ev);  // a child group's handshake message
          break;
        }
        const int src = rank_of(ev.peer);
        if (src < 0) {
          // Parent-level traffic drained while working in a child.
          if (parent_ != nullptr) parent_->on_foreign_event(ev);
          break;
        }
        Message m{src, ev.bytes, ev.tag, ev.value};
        if (src == src_rank) co_return m;
        pending_[src].push_back(m);
        break;
      }
      case GmEventType::kBarrierComplete:
        if (barrier_ != nullptr) {
          barrier_->note_completion();
        } else {
          // Managed groups consume their own completions inside barrier();
          // one surfacing here is a stale (cancelled-epoch) event.
          port_.count_stale_completion();
        }
        break;
      case GmEventType::kReduceComplete:
        reducer_->note_result(ev.value);
        break;
      case GmEventType::kPeerDead:
        note_peer_dead(ev.peer.node);
        break;
      case GmEventType::kSent:
        break;
    }
  }
}

sim::ValueTask<coll::BarrierStatus> Communicator::barrier() {
  co_await ensure_provisioned();
  // per-GM-call layer cost is charged by the port itself
  const coll::BarrierStatus st = managed_ != nullptr ? co_await managed_->run_barrier()
                                                     : co_await barrier_->run();
  if (!coll::is_success(st)) failed_ = true;
  co_return st;
}

sim::ValueTask<std::int64_t> Communicator::allreduce(std::int64_t value, nic::ReduceOp op) {
  co_await ensure_provisioned();
  // per-GM-call layer cost is charged by the port itself
  if (op == nic::ReduceOp::kSum) {
    co_return co_await reducer_->allreduce(value);
  }
  // Non-sum operators get a dedicated member (cheap: schedules only).
  coll::ReduceMember red(port_, group_, config_.collective_location, op,
                         config_.gb_dimension);
  red.set_event_sink([this](const GmEvent& ev) {
    if (ev.type == GmEventType::kRecv) {
      const int src = rank_of(ev.peer);
      if (src >= 0) pending_[src].push_back(Message{src, ev.bytes, ev.tag});
    } else if (ev.type == GmEventType::kBarrierComplete) {
      barrier_->note_completion();
    } else if (ev.type == GmEventType::kPeerDead) {
      note_peer_dead(ev.peer.node);
    }
  });
  co_return co_await red.allreduce(value);
}

sim::ValueTask<std::int64_t> Communicator::bcast(std::int64_t value) {
  // OR-reduction with identity 0 everywhere except the root delivers the
  // root's value to every rank over the same combining tree.
  co_return co_await allreduce(rank_ == 0 ? value : 0, nic::ReduceOp::kBitOr);
}

sim::ValueTask<std::unique_ptr<Communicator>> Communicator::split(int color, int key) {
  // Child group ids only need to be unique among groups that can share a GM
  // port — i.e. among descendants of one communicator tree — and every rank
  // runs the same collective sequence, so (parent id, split #, color)
  // identifies the child deterministically everywhere. 10 bits each for the
  // split counter and the color keep three levels of nesting inside the
  // 47-bit id space.
  if (color >= (1 << 10) - 1) throw std::out_of_range("split color too large");
  return split_impl(color, key);
}

sim::ValueTask<std::unique_ptr<Communicator>> Communicator::split_impl(int color, int key) {
  co_await ensure_provisioned();
  // Phase 1: all-to-all (color, key) exchange over point-to-point sends.
  const std::int64_t mine = encode_split(color, key);
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    co_await send_impl(r, 8, nic::kCommSplitMsgTag, mine);
  }
  std::vector<std::int64_t> vals(static_cast<std::size_t>(size()));
  vals[static_cast<std::size_t>(rank_)] = mine;
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    const Message m = co_await recv_impl(r);
    NICBAR_CHECK(m.tag == nic::kCommSplitMsgTag, "mpi.split", port_.simulator().now(),
                 "rank %d sent tag 0x%llx during a split — point-to-point traffic must "
                 "not overlap the collective",
                 r, static_cast<unsigned long long>(m.tag));
    vals[static_cast<std::size_t>(r)] = m.value;
  }
  const int seq = ++split_seq_;
  if (color < 0) co_return nullptr;  // MPI_UNDEFINED: not in any child

  // Phase 2: identical child computation on every member — my color's ranks,
  // ordered by (key, parent rank).
  std::vector<int> members;
  for (int r = 0; r < size(); ++r) {
    if (split_color(vals[static_cast<std::size_t>(r)]) == color) members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return split_key(vals[static_cast<std::size_t>(a)]) <
           split_key(vals[static_cast<std::size_t>(b)]);
  });
  std::vector<gm::Endpoint> child_eps;
  child_eps.reserve(members.size());
  for (int r : members) child_eps.push_back((*group_)[static_cast<std::size_t>(r)]);

  const std::uint64_t child_id = (group_id_ << 20) |
                                 (static_cast<std::uint64_t>(seq) << 10) |
                                 static_cast<std::uint64_t>(color + 1);
  std::unique_ptr<Communicator> child(
      new Communicator(port_, coll::MemberList::of(child_eps), config_, this, child_id));

  // Phase 3: the managed-group admission handshake (slot allocation on every
  // member NIC, or degraded host-fallback mode).
  const coll::BarrierStatus st = co_await child->managed_->run_create();
  if (!coll::is_success(st)) child->failed_ = true;
  co_return child;
}

sim::ValueTask<coll::BarrierStatus> Communicator::free() {
  if (managed_ == nullptr) throw std::logic_error("free() on a root communicator");
  return [](Communicator& self) -> sim::ValueTask<coll::BarrierStatus> {
    const coll::BarrierStatus st = co_await self.managed_->run_destroy();
    self.root_->unregister_group(self.managed_->id());
    co_return st;
  }(*this);
}

}  // namespace nicbar::mpi
