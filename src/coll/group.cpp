#include "coll/group.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace nicbar::coll {

using nic::GmEvent;
using nic::GmEventType;

namespace {

// Handshake opcodes, carried in the low byte of the control-message value.
constexpr std::uint8_t kCreateAck = 1;
constexpr std::uint8_t kCreateCommit = 2;
constexpr std::uint8_t kPromoteAck = 3;
constexpr std::uint8_t kPromoteCommit = 4;
constexpr std::uint8_t kDestroyAck = 5;
constexpr std::uint8_t kDestroyCommit = 6;

// Control messages are ordinary reliable GM sends; the 64-bit value packs
// (group id | flag | opcode) because GM messages carry no payload arrays.
constexpr std::uint64_t kMaxGroupId = (1ull << 47) - 1;

std::int64_t encode_ctrl(std::uint64_t group, std::uint8_t kind, bool flag) {
  return static_cast<std::int64_t>((group << 16) | (static_cast<std::uint64_t>(flag) << 8) |
                                   kind);
}

std::uint64_t ctrl_group(std::int64_t value) {
  return static_cast<std::uint64_t>(value) >> 16;
}
std::uint8_t ctrl_kind(std::int64_t value) {
  return static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) & 0xff);
}
bool ctrl_flag(std::int64_t value) {
  return ((static_cast<std::uint64_t>(value) >> 8) & 0xff) != 0;
}

}  // namespace

std::uint64_t ctrl_message_group(std::int64_t value) { return ctrl_group(value); }

const char* to_string(GroupState s) {
  switch (s) {
    case GroupState::kNew: return "new";
    case GroupState::kActive: return "active";
    case GroupState::kDegraded: return "degraded";
    case GroupState::kDraining: return "draining";
    case GroupState::kFreed: return "freed";
    case GroupState::kFailed: return "failed";
  }
  return "?";
}

GroupMember::GroupMember(gm::Port& port, const std::vector<Endpoint>& members,
                         GroupConfig config)
    : GroupMember(port, MemberList::of(members), config) {}

GroupMember::GroupMember(gm::Port& port, std::shared_ptr<const MemberList> members,
                         GroupConfig config)
    : port_(port), members_(std::move(members)), config_(config) {
  if (config_.id == 0 || config_.id > kMaxGroupId) {
    throw std::invalid_argument("group id must be non-zero and fit in 47 bits");
  }
  const std::optional<std::size_t> me = members_->rank_of(port_.endpoint());
  if (!me) throw std::invalid_argument("port's endpoint is not in the group");
  my_index_ = *me;

  const std::string why = family_refusal(config_.barrier.family, {.managed = true});
  if (!why.empty()) throw std::invalid_argument(why);
  BarrierSpec base{.deadline = config_.deadline, .group = config_.id,
                   .hier_block = config_.hier_block};
  nic_bm_ = std::make_unique<BarrierMember>(port_, members_, family_spec(config_.barrier, base));

  // The degraded path is host software running the row's fallback family; it
  // stamps no group id (only NIC barrier packets carry one).
  base.group = 0;
  base.hier_block = 0;
  const FamilyChoice fallback{family_row(config_.barrier.family).fallback, config_.barrier.dim};
  host_bm_ = std::make_unique<BarrierMember>(port_, members_, family_spec(fallback, base));

  // Both barrier paths share the port's event stream with the handshakes:
  // control messages drained during a barrier wait are parked here (their
  // receive buffer is repaid at the next handshake), everything else goes to
  // the outer layer's sink.
  auto funnel = [this](const GmEvent& ev) {
    if (ev.type == GmEventType::kRecv && ev.tag == nic::kGroupCtrlMsgTag) {
      ++owed_buffers_;
      note_ctrl(ev);
      return;
    }
    if (ev.type == GmEventType::kPeerDead) {
      nic_bm_->note_peer_dead(ev.peer.node);
      host_bm_->note_peer_dead(ev.peer.node);
      if (members_->contains(ev.peer.node)) peer_dead_ = true;
    }
    if (sink_) sink_(ev);
  };
  nic_bm_->set_event_sink(funnel);
  host_bm_->set_event_sink(funnel);
}

void GroupMember::set_event_sink(std::function<void(const nic::GmEvent&)> sink) {
  sink_ = std::move(sink);
}

void GroupMember::note_ctrl(const GmEvent& ev) {
  if (ctrl_group(ev.value) != config_.id) {
    // Another group's handshake sharing this port: the layer above owns the
    // routing (mpi::Communicator keeps a registry of its child groups).
    if (sink_) sink_(ev);
    return;
  }
  pending_ctrl_.push_back(CtrlMsg{ev.peer, ctrl_kind(ev.value), ctrl_flag(ev.value)});
}

void GroupMember::note_peer_dead(net::NodeId node) {
  nic_bm_->note_peer_dead(node);
  host_bm_->note_peer_dead(node);
  if (members_->contains(node)) peer_dead_ = true;
}

void GroupMember::release_local_slot() {
  if (!slot_held_) return;
  slot_held_ = false;
  port_.nic().slot_free(config_.id, port_.id());
}

sim::Task GroupMember::ensure_provisioned() {
  if (provisioned_) co_return;
  provisioned_ = true;
  // Each member sends us at most one ack per handshake phase (and the
  // coordinator one commit); double it for cross-phase overlap, plus slack.
  for (std::size_t i = 0; i < 2 * members_->size() + 4; ++i) {
    co_await port_.provide_receive_buffer(ctrl_bytes_);
  }
}

sim::Task GroupMember::send_ctrl(Endpoint dst, std::uint8_t kind, bool flag) {
  return port_.send(dst, ctrl_bytes_, nic::kGroupCtrlMsgTag,
                    encode_ctrl(config_.id, kind, flag));
}

sim::ValueTask<GroupMember::CtrlWait> GroupMember::collect_ctrl(std::uint8_t kind,
                                                                std::size_t need) {
  CtrlWait r;
  std::size_t got = 0;
  const sim::SimTime deadline_at = config_.ctrl_deadline.is_zero()
                                       ? sim::SimTime::max()
                                       : port_.simulator().now() + config_.ctrl_deadline;
  for (;;) {
    // Repay receive buffers for control messages captured during barrier
    // waits (the funnel cannot co_await; this loop can).
    while (owed_buffers_ > 0) {
      --owed_buffers_;
      co_await port_.provide_receive_buffer(ctrl_bytes_);
    }
    for (auto it = pending_ctrl_.begin(); it != pending_ctrl_.end() && got < need;) {
      if (it->kind == kind) {
        r.all_flags = r.all_flags && it->flag;
        ++got;
        it = pending_ctrl_.erase(it);
      } else {
        ++it;
      }
    }
    if (got >= need) co_return r;
    if (peer_dead_) {
      r.status = BarrierStatus::kPeerDead;
      co_return r;
    }

    std::optional<GmEvent> evo;
    if (deadline_at == sim::SimTime::max()) {
      evo = co_await port_.receive();
    } else {
      const sim::SimTime now = port_.simulator().now();
      if (now >= deadline_at) {
        r.status = BarrierStatus::kDeadline;
        co_return r;
      }
      evo = co_await port_.receive_for(deadline_at - now);
      if (!evo.has_value()) {
        r.status = BarrierStatus::kDeadline;
        co_return r;
      }
    }
    GmEvent& ev = *evo;
    switch (ev.type) {
      case GmEventType::kRecv:
        if (ev.tag == nic::kGroupCtrlMsgTag) {
          co_await port_.provide_receive_buffer(ctrl_bytes_);
          note_ctrl(ev);
        } else if (ev.tag == nic::kBarrierMsgTag) {
          // A peer that already got its commit raced ahead into the first
          // host-fallback round; park the message for the barrier layer.
          co_await port_.provide_receive_buffer(ctrl_bytes_);
          host_bm_->note_msg(ev.peer);
        } else if (sink_) {
          sink_(ev);  // the layer above owns data traffic and its buffers
        } else {
          co_await port_.provide_receive_buffer(ctrl_bytes_);
        }
        break;
      case GmEventType::kPeerDead:
        if (sink_) sink_(ev);
        nic_bm_->note_peer_dead(ev.peer.node);
        host_bm_->note_peer_dead(ev.peer.node);
        if (members_->contains(ev.peer.node)) {
          peer_dead_ = true;
          r.status = BarrierStatus::kPeerDead;
          co_return r;
        }
        break;
      case GmEventType::kBarrierComplete:
        // No barrier of ours is in flight during a handshake: a completion
        // here is stale (an aborted epoch's event already through RDMA/PCI).
        if (sink_) {
          sink_(ev);
        } else {
          port_.count_stale_completion();
        }
        break;
      default:
        if (sink_) sink_(ev);
        break;
    }
  }
}

sim::ValueTask<BarrierStatus> GroupMember::admission_handshake(std::uint8_t ack_kind,
                                                               std::uint8_t commit_kind,
                                                               bool* nic_out) {
  // Phase 0: local slot admission on this member's NIC. Rejection is not an
  // error — it just votes "degraded" in the commit decision.
  slot_held_ = port_.nic().slot_allocate(config_.id, port_.id());

  if (my_index_ == 0) {
    // Phase 1 (coordinator): collect every member's vote.
    const CtrlWait acks = co_await collect_ctrl(ack_kind, members_->size() - 1);
    if (acks.status != BarrierStatus::kOk) {
      release_local_slot();
      co_return acks.status;
    }
    const bool nic_mode = slot_held_ && acks.all_flags;
    // Phase 2: broadcast the commit; NIC offload only if *everyone* holds a
    // slot — a half-offloaded barrier would deadlock (host members never
    // answer NIC barrier packets).
    for (std::size_t i = 1; i < members_->size(); ++i) {
      co_await send_ctrl((*members_)[i], commit_kind, nic_mode);
    }
    if (!nic_mode) release_local_slot();
    *nic_out = nic_mode;
    co_return BarrierStatus::kOk;
  }

  // Phase 1 (member): vote, then wait for the commit.
  co_await send_ctrl((*members_)[0], ack_kind, slot_held_);
  const CtrlWait commit = co_await collect_ctrl(commit_kind, 1);
  if (commit.status != BarrierStatus::kOk) {
    release_local_slot();
    co_return commit.status;
  }
  if (!commit.all_flags) release_local_slot();
  *nic_out = commit.all_flags;
  co_return BarrierStatus::kOk;
}

sim::ValueTask<BarrierStatus> GroupMember::run_create() {
  if (state_ != GroupState::kNew) throw std::logic_error("group already created");
  co_await ensure_provisioned();
  bool nic_mode = false;
  const BarrierStatus st =
      co_await admission_handshake(kCreateAck, kCreateCommit, &nic_mode);
  if (st != BarrierStatus::kOk) {
    state_ = GroupState::kFailed;
    failed_status_ = st;
    co_return st;
  }
  state_ = nic_mode ? GroupState::kActive : GroupState::kDegraded;
  co_return nic_mode ? BarrierStatus::kOk : BarrierStatus::kOkDegraded;
}

sim::ValueTask<BarrierStatus> GroupMember::attempt_promotion() {
  bool nic_mode = false;
  const BarrierStatus st =
      co_await admission_handshake(kPromoteAck, kPromoteCommit, &nic_mode);
  if (st != BarrierStatus::kOk) co_return st;
  if (nic_mode) {
    state_ = GroupState::kActive;
    ++promotions_;
  }
  co_return BarrierStatus::kOk;
}

sim::ValueTask<BarrierStatus> GroupMember::run_barrier() {
  switch (state_) {
    case GroupState::kFailed:
      co_return failed_status_;
    case GroupState::kActive: {
      ++barriers_run_;
      const BarrierStatus st = co_await nic_bm_->run();
      if (st != BarrierStatus::kOk) {
        state_ = GroupState::kFailed;
        failed_status_ = st;
      }
      co_return st;
    }
    case GroupState::kDegraded: {
      ++barriers_run_;
      ++degraded_barriers_;
      const BarrierStatus st = co_await host_bm_->run();
      if (st != BarrierStatus::kOk) {
        state_ = GroupState::kFailed;
        failed_status_ = st;
        co_return st;
      }
      if (config_.promote_every > 0 && ++degraded_since_promote_ >= config_.promote_every) {
        // Every member runs the same collective sequence, so the attempt
        // fires on the same barrier index everywhere — the handshake needs
        // no extra synchronisation. This barrier still ran degraded.
        degraded_since_promote_ = 0;
        const BarrierStatus pst = co_await attempt_promotion();
        if (pst != BarrierStatus::kOk) {
          state_ = GroupState::kFailed;
          failed_status_ = pst;
          co_return pst;
        }
      }
      co_return BarrierStatus::kOkDegraded;
    }
    default:
      throw std::logic_error("barrier on a group that is not created");
  }
}

sim::ValueTask<BarrierStatus> GroupMember::run_destroy() {
  if (state_ == GroupState::kFreed) co_return BarrierStatus::kOk;  // idempotent
  if (state_ == GroupState::kNew) {
    state_ = GroupState::kFreed;
    co_return BarrierStatus::kOk;
  }
  if (state_ == GroupState::kFailed) {
    // Peers may be dead or already gone — no handshake can complete. Local
    // cleanup only; the fence handles whatever is still in flight.
    release_local_slot();
    state_ = GroupState::kFreed;
    co_return BarrierStatus::kOk;
  }
  if (state_ == GroupState::kDraining) throw std::logic_error("destroy already in progress");

  state_ = GroupState::kDraining;
  co_await ensure_provisioned();
  // Drain-by-construction: a member only reaches this ack after its last
  // barrier() returned, and barrier completion implies every within-group
  // message addressed to it was consumed. Once the coordinator holds all
  // acks, no in-flight round remains anywhere.
  BarrierStatus st = BarrierStatus::kOk;
  if (my_index_ == 0) {
    const CtrlWait acks = co_await collect_ctrl(kDestroyAck, members_->size() - 1);
    st = acks.status;
    if (st == BarrierStatus::kOk) {
      for (std::size_t i = 1; i < members_->size(); ++i) {
        co_await send_ctrl((*members_)[i], kDestroyCommit, true);
      }
    }
  } else {
    co_await send_ctrl((*members_)[0], kDestroyAck, true);
    const CtrlWait commit = co_await collect_ctrl(kDestroyCommit, 1);
    st = commit.status;
  }
  // The slot is released whatever happened: resources must not leak just
  // because a peer died mid-destroy. Late packets are fenced from here on.
  release_local_slot();
  state_ = GroupState::kFreed;
  if (st != BarrierStatus::kOk) failed_status_ = st;
  co_return st;
}

}  // namespace nicbar::coll
