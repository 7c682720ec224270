#include "coll/barrier.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll/family.hpp"

namespace nicbar::coll {

using nic::BarrierAlgorithm;
using nic::GmEvent;
using nic::GmEventType;

BarrierMember::BarrierMember(gm::Port& port, const std::vector<Endpoint>& group,
                             BarrierSpec spec)
    : BarrierMember(port, MemberList::of(group), spec) {}

BarrierMember::BarrierMember(gm::Port& port, std::shared_ptr<const MemberList> members,
                             BarrierSpec spec)
    : port_(port), members_(std::move(members)), spec_(spec), family_(family_of(spec_)) {
  const std::optional<std::size_t> me = members_->rank_of(port_.endpoint());
  if (!me) throw std::invalid_argument("port's endpoint is not in the barrier group");
  my_index_ = *me;
  const std::string why = family_refusal(family_, {.managed = spec_.group != 0});
  if (!why.empty()) throw std::invalid_argument(why);
  const std::span<const Endpoint> group = members_->members();
  if (family_ == Family::kHostDissem || family_ == Family::kHostTree) {
    // The port must already be open: registration and the sink binding live
    // in the NIC's per-port state, which opening resets.
    rdma_domain_ = std::make_unique<rma::Domain>(port_);
    if (family_ == Family::kHostDissem) {
      const std::uint64_t words =
          std::max<std::uint64_t>(1, rma::DisseminationBarrier::rounds_for(group.size()));
      rma::Segment& seg = rdma_domain_->register_segment(words);
      rdma_barrier_ =
          std::make_unique<rma::DisseminationBarrier>(*rdma_domain_, seg, group, my_index_);
    } else {
      const std::size_t radix = std::max<std::size_t>(1, spec_.gb_dimension);
      rma::Segment& seg =
          rdma_domain_->register_segment(rma::TreePutBarrier::words_for(radix));
      rdma_barrier_ =
          std::make_unique<rma::TreePutBarrier>(*rdma_domain_, seg, group, my_index_, radix);
    }
    return;
  }
  if (family_ == Family::kHier) {
    const std::size_t n = group.size();
    const std::size_t block =
        (spec_.hier_block == 0 || spec_.hier_block > n) ? n : spec_.hier_block;
    const std::size_t b = my_index_ / block;
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, n);
    const std::size_t blocks = (n + block - 1) / block;
    hier_is_rep_ = my_index_ == lo;
    const std::span<const Endpoint> mates = group.subspan(lo, hi - lo);
    hier_gb_ = gb_tree(mates, my_index_ - lo, spec_.gb_dimension);
    if (hier_is_rep_) {
      // Multidestination release fan-out: every block mate, directly.
      hier_release_.assign(mates.begin() + 1, mates.end());
    } else {
      // Where our release will come from.
      hier_release_.assign(1, mates.front());
    }
    if (hier_is_rep_ && blocks > 1) {
      std::vector<Endpoint> reps;
      reps.reserve(blocks);
      for (std::size_t r = 0; r < blocks; ++r) reps.push_back(group[r * block]);
      hier_rep_peers_ = pe_schedule(reps, b);
    }
    return;
  }
  if (family_ == Family::kNicPe || family_ == Family::kHostPe) {
    pe_peers_ = pe_schedule(group, my_index_);
  } else {
    gb_ = gb_tree(group, my_index_, spec_.gb_dimension);
  }
}

sim::ValueTask<BarrierStatus> BarrierMember::run() {
  if (peer_dead_) co_return BarrierStatus::kPeerDead;
  deadline_at_ = spec_.deadline.is_zero() ? sim::SimTime::max()
                                          : port_.simulator().now() + spec_.deadline;
  switch (family_) {
    case Family::kHostDissem:
    case Family::kHostTree: {
      const BarrierStatus st = co_await rdma_barrier_->run(deadline_at_);
      if (st == BarrierStatus::kPeerDead) peer_dead_ = true;
      co_return st;
    }
    case Family::kHostPe: {
      const BarrierStatus st = co_await run_host_pe();
      co_return st;
    }
    case Family::kHostGb: {
      const BarrierStatus st = co_await run_host_gb();
      co_return st;
    }
    case Family::kNicPe:
    case Family::kNicGb:
    case Family::kHier:
      break;
  }
  gm::Epoch epoch;
  if (family_ == Family::kHier) {
    epoch = co_await start_hier();
  } else {
    epoch = co_await start_nic_barrier();
  }
  const BarrierStatus st = co_await wait_barrier_complete(epoch);
  if (st != BarrierStatus::kOk) port_.barrier_cancel();
  co_return st;
}

/// Bounded receive: nullopt means the deadline passed (or was already past).
sim::ValueTask<std::optional<GmEvent>> BarrierMember::next_event() {
  if (deadline_at_ == sim::SimTime::max()) {
    GmEvent ev = co_await port_.receive();
    co_return ev;
  }
  const sim::SimTime now = port_.simulator().now();
  if (now >= deadline_at_) co_return std::nullopt;
  co_return co_await port_.receive_for(deadline_at_ - now);
}

// --- Host-based barriers ------------------------------------------------------

sim::Task BarrierMember::ensure_provisioned() {
  if (provisioned_) co_return;
  provisioned_ = true;
  // Enough pinned buffers for every message of this barrier plus early
  // arrivals from the next one (each peer can be at most one barrier ahead).
  const std::size_t expected = family_ == Family::kHostPe
                                   ? pe_peers_.size()
                                   : gb_.children.size() + (gb_.is_root() ? 0 : 1);
  for (std::size_t i = 0; i < 2 * expected + 2; ++i) {
    co_await port_.provide_receive_buffer(msg_bytes_);
  }
}

sim::ValueTask<BarrierStatus> BarrierMember::wait_msg_from(Endpoint peer) {
  auto it = pending_msgs_.find(peer);
  if (it != pending_msgs_.end() && it->second > 0) {
    if (--it->second == 0) pending_msgs_.erase(it);
    co_return BarrierStatus::kOk;
  }
  for (;;) {
    if (peer_dead_) co_return BarrierStatus::kPeerDead;
    std::optional<GmEvent> evo = co_await next_event();
    if (!evo.has_value()) co_return BarrierStatus::kDeadline;
    GmEvent& ev = *evo;
    switch (ev.type) {
      case GmEventType::kRecv:
        if (ev.tag != nic::kBarrierMsgTag) {
          // Application traffic sharing the port: hand it to the higher
          // layer (which owns the buffer pool), or drop it if nobody cares.
          if (sink_) {
            sink_(ev);
          } else {
            co_await port_.provide_receive_buffer(msg_bytes_);
          }
          break;
        }
        co_await port_.provide_receive_buffer(msg_bytes_);  // replenish the pool
        if (ev.peer == peer) co_return BarrierStatus::kOk;
        ++pending_msgs_[ev.peer];
        break;
      case GmEventType::kBarrierComplete:
        ++pending_completions_;
        break;
      case GmEventType::kPeerDead:
        if (sink_) sink_(ev);  // the layer above needs to see the failure too
        if (members_->contains(ev.peer.node)) {
          peer_dead_ = true;
          co_return BarrierStatus::kPeerDead;
        }
        break;
      default:
        if (sink_) sink_(ev);
        break;
    }
  }
}

sim::ValueTask<BarrierStatus> BarrierMember::run_host_pe() {
  co_await ensure_provisioned();
  for (const Endpoint& peer : pe_peers_) {
    co_await port_.send(peer, msg_bytes_, nic::kBarrierMsgTag);
    const BarrierStatus st = co_await wait_msg_from(peer);
    if (st != BarrierStatus::kOk) co_return st;
  }
  co_return BarrierStatus::kOk;
}

sim::ValueTask<BarrierStatus> BarrierMember::run_host_gb() {
  co_await ensure_provisioned();
  // Gather phase: wait for every child, then report to the parent.
  for (const Endpoint& child : gb_.children) {
    const BarrierStatus st = co_await wait_msg_from(child);
    if (st != BarrierStatus::kOk) co_return st;
  }
  if (!gb_.is_root()) {
    co_await port_.send(gb_.parent, msg_bytes_, nic::kBarrierMsgTag);
    const BarrierStatus st = co_await wait_msg_from(gb_.parent);  // broadcast release
    if (st != BarrierStatus::kOk) co_return st;
  }
  // Broadcast phase: release the subtree. The host pipelines these sends —
  // the NIC is still processing one while the host posts the next (the
  // pipelining the paper credits for host-GB's relative strength, §6).
  for (const Endpoint& child : gb_.children) {
    co_await port_.send(child, msg_bytes_, nic::kBarrierMsgTag);
  }
  co_return BarrierStatus::kOk;
}

// --- NIC-based barriers -----------------------------------------------------------

// --- Hierarchical barrier (two-level: intra-block gather, rep PE, release) --------

sim::ValueTask<gm::Epoch> BarrierMember::start_hier() {
  // Every member posts exactly one kHierarchical token per barrier. The
  // representative's is firmware-resident across all three phases: the NIC
  // advances gather -> inter-representative exchange -> multidestination
  // release with zero host hand-offs — the same philosophy the paper
  // applies to the flat algorithms (§4.2). Everyone else gathers up the
  // block tree and completes on the representative's direct release.
  nic::BarrierToken token;
  token.group = spec_.group;
  token.algorithm = BarrierAlgorithm::kHierarchical;
  token.children = hier_gb_.children;
  token.release = hier_release_;
  if (hier_is_rep_) {
    token.peers = hier_rep_peers_;
    // parent stays invalid: the representative roots its block tree.
  } else {
    token.parent = hier_gb_.parent;
  }
  co_await port_.provide_barrier_buffer();
  co_return co_await port_.barrier_send(std::move(token));
}

sim::ValueTask<gm::Epoch> BarrierMember::start_nic_barrier() {
  nic::BarrierToken token;
  token.algorithm = family_row(family_).spec.algorithm;
  token.group = spec_.group;
  if (family_ == Family::kNicPe) {
    token.peers = pe_peers_;
  } else {
    token.parent = gb_.parent;
    token.children = gb_.children;
  }
  co_await port_.provide_barrier_buffer();
  co_return co_await port_.barrier_send(std::move(token));
}

sim::ValueTask<BarrierStatus> BarrierMember::wait_barrier_complete(gm::Epoch epoch) {
  if (pending_completions_ > 0) {
    // Drained by a sharing layer; the event's causal id is gone, so a
    // representative hand-off starting here has no provenance parent.
    --pending_completions_;
    last_completion_causal_ = 0;
    co_return BarrierStatus::kOk;
  }
  for (;;) {
    if (peer_dead_) co_return BarrierStatus::kPeerDead;
    std::optional<GmEvent> evo = co_await next_event();
    if (!evo.has_value()) co_return BarrierStatus::kDeadline;
    GmEvent& ev = *evo;
    switch (ev.type) {
      case GmEventType::kBarrierComplete:
        // A completion from an earlier, aborted epoch can still surface if
        // the fabric healed after we cancelled; only ours ends this wait.
        if (epoch.matches(ev.barrier_epoch)) {
          last_completion_causal_ = ev.causal;
          last_completion_at_ = port_.simulator().now();
          co_return BarrierStatus::kOk;
        }
        port_.count_stale_completion();
        break;
      case GmEventType::kRecv:
        if (sink_) {
          sink_(ev);  // a higher layer owns data traffic and its buffers
          break;
        }
        co_await port_.provide_receive_buffer(msg_bytes_);
        ++pending_msgs_[ev.peer];
        break;
      case GmEventType::kPeerDead:
        if (sink_) sink_(ev);
        if (members_->contains(ev.peer.node)) {
          peer_dead_ = true;
          co_return BarrierStatus::kPeerDead;
        }
        break;
      default:
        if (sink_) sink_(ev);
        break;
    }
  }
}

sim::ValueTask<std::uint64_t> BarrierMember::run_fuzzy(sim::Duration chunk) {
  // Validate eagerly: a lazy coroutine would defer the throw until awaited.
  if (!family_row(family_).fuzzy) {
    throw std::logic_error("fuzzy barrier requires the flat NIC-based implementation");
  }
  return run_fuzzy_impl(chunk);
}

sim::ValueTask<std::uint64_t> BarrierMember::run_fuzzy_impl(sim::Duration chunk) {
  const gm::Epoch epoch = co_await start_nic_barrier();
  std::uint64_t chunks = 0;
  if (pending_completions_ > 0) {
    --pending_completions_;
    co_return chunks;
  }
  for (;;) {
    std::optional<GmEvent> ev = co_await port_.poll();
    if (!ev.has_value()) {
      co_await port_.compute(chunk);
      ++chunks;
      continue;
    }
    switch (ev->type) {
      case GmEventType::kBarrierComplete:
        if (epoch.matches(ev->barrier_epoch)) co_return chunks;
        port_.count_stale_completion();
        break;
      case GmEventType::kRecv:
        if (sink_) {
          sink_(*ev);
          break;
        }
        co_await port_.provide_receive_buffer(msg_bytes_);
        if (ev->tag == nic::kBarrierMsgTag) ++pending_msgs_[ev->peer];
        break;
      case GmEventType::kPeerDead:
        if (sink_) sink_(*ev);
        if (members_->contains(ev->peer.node)) {
          // Abort: the caller learns via peer_failed(); the chunk count is
          // still meaningful (work completed before the failure).
          peer_dead_ = true;
          port_.barrier_cancel();
          co_return chunks;
        }
        break;
      default:
        if (sink_) sink_(*ev);
        break;
    }
  }
}

}  // namespace nicbar::coll
