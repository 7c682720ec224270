// Barrier implementations over GM: the four variants the paper evaluates,
// plus the hierarchical and host-RDMA families (coll/family.hpp lists all).
//
//   Location::kHost  +  PE/GB — classic host-based software barriers built
//                               from ordinary GM send/receive.
//   Location::kNic   +  PE/GB — the paper's contribution: the host computes
//                               its schedule slice, posts one barrier token,
//                               and polls for GM_BARRIER_COMPLETED_EVENT
//                               while the NIC firmware runs the algorithm.
//
// A BarrierMember is one participant's per-process state. It owns the
// buffered-event bookkeeping a host-based barrier needs (messages from
// future rounds or the next barrier can arrive early and must be stashed,
// mirroring the unexpected-message discussion of §3.1 at host level).
#pragma once

#include <functional>
#include <cstdint>
#include <map>
#include <vector>

#include <memory>

#include "coll/schedule.hpp"
#include "coll/status.hpp"
#include "gm/port.hpp"
#include "rma/barrier.hpp"
#include "rma/domain.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace nicbar::coll {

enum class Location : std::uint8_t { kHost, kNic };

/// One row of the family table (coll/family.hpp, which needs BarrierSpec).
enum class Family : std::uint8_t;

/// The host-RDMA families' selector: barriers over the rma:: one-sided layer
/// (rput + flag words; see src/rma/barrier.hpp). coll/family.hpp names them.
enum class RdmaAlgorithm : std::uint8_t { kNone = 0, kDissemination, kTreePut };

/// The status vocabulary lives in coll/status.hpp (shared with mpi::, wl::
/// and the rma:: one-sided layer); BarrierStatus is the historical name.
using BarrierStatus = Status;

/// The family is selected by location + algorithm, overridden by `rdma`,
/// then by `hierarchical`; coll::family_of() is the one reader of that
/// combination and coll::family_spec() the one writer.
struct BarrierSpec {
  Location location = Location::kNic;
  nic::BarrierAlgorithm algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  /// GB only: tree dimension (fanout). The paper sweeps 1..N-1 and reports
  /// the best.
  std::size_t gb_dimension = 2;
  /// Abort with BarrierStatus::kDeadline if one run() has not completed
  /// within this much simulated time of starting. Zero = wait forever. This
  /// is the backstop for members with no direct connection to a dead peer
  /// (kPeerDead only reaches nodes whose own reliability gave up).
  sim::Duration deadline{0};
  /// Managed barrier-group id stamped on every NIC barrier packet (0 = the
  /// legacy anonymous group). Set by coll::GroupMember, which owns the
  /// matching NIC slot bindings; see nic::SlotTable.
  std::uint64_t group = 0;
  /// When not kNone, the barrier runs on a host-RDMA family instead of
  /// `location`/`algorithm` (which are then ignored). kTreePut reuses
  /// `gb_dimension` as the tree radix.
  RdmaAlgorithm rdma = RdmaAlgorithm::kNone;
  /// The hierarchical NIC family for multi-switch fabrics: members are cut
  /// into blocks of `hier_block` consecutive indices (one block per leaf
  /// switch under the in-order placement the runners use). Each barrier is
  /// (A) an intra-block gather up the block tree, (B) pairwise exchange
  /// among the block representatives (member 0 of each block), (C) a
  /// multidestination release sent by the representative straight to every
  /// block mate (SEND-side replication — one packet hop, no tree descent).
  /// Phases A/C stay leaf-local — one switch hop, no fabric contention — so
  /// only the R = N/hier_block representatives cross the core; and every
  /// phase transition happens *inside the NIC firmware* (one kHierarchical
  /// token per member, no host hand-offs between phases). Requires
  /// Location::kNic and rdma == kNone; `algorithm` is ignored;
  /// `gb_dimension` shapes the intra-block trees. Degenerate shapes
  /// collapse cleanly: one block -> a flat gather tree with a star release,
  /// one-member blocks -> flat PE among representatives.
  bool hierarchical = false;
  /// Members per block. 0 = one block spanning the whole group.
  std::size_t hier_block = 0;
};

class BarrierMember {
 public:
  /// `group` lists every participating endpoint; this member is the entry
  /// whose endpoint equals port.endpoint() (its first occurrence). Members
  /// built from the same vector share one MemberList (MemberList::of).
  BarrierMember(gm::Port& port, const std::vector<Endpoint>& group, BarrierSpec spec);
  /// Joins an existing shared list (a GroupMember or mpi::Communicator hands
  /// its own list to the barrier members it owns).
  BarrierMember(gm::Port& port, std::shared_ptr<const MemberList> members, BarrierSpec spec);

  /// Runs one barrier. Returns kOk on completion; kPeerDead/kDeadline mean
  /// the barrier was aborted cleanly (the NIC token is cancelled, the
  /// coroutine returns — it never hangs). Await sites that ignore the value
  /// keep working; error-aware callers check it.
  [[nodiscard]] sim::ValueTask<BarrierStatus> run();

  /// NIC-based only: initiates the barrier, then performs `chunk`-sized
  /// pieces of host computation while polling (the fuzzy barrier of §2.1).
  /// Returns the number of chunks completed before the barrier finished.
  [[nodiscard]] sim::ValueTask<std::uint64_t> run_fuzzy(sim::Duration chunk);

  [[nodiscard]] const std::shared_ptr<const MemberList>& member_list() const { return members_; }
  [[nodiscard]] const std::vector<Endpoint>& pe_peers() const { return pe_peers_; }
  [[nodiscard]] std::size_t my_index() const { return my_index_; }
  [[nodiscard]] const BarrierSpec& spec() const { return spec_; }

  /// When a higher layer (e.g. mpi::Communicator) shares the port's event
  /// stream, it installs a sink here: events that are not this barrier's
  /// business (kRecv, kSent, foreign completions) are handed to the sink
  /// instead of being stashed, and buffer replenishment is left to the
  /// layer. Conversely the layer calls note_completion() when it drains a
  /// kBarrierComplete meant for us.
  void set_event_sink(std::function<void(const nic::GmEvent&)> sink) {
    sink_ = std::move(sink);
  }
  void note_completion() { ++pending_completions_; }

  /// Higher layer drained a host-barrier message (kBarrierMsgTag) from the
  /// shared stream that belongs to this member's next wait — e.g. a peer
  /// raced ahead into the first barrier while we were still finishing the
  /// group-create handshake (coll::GroupMember).
  void note_msg(Endpoint peer) { ++pending_msgs_[peer]; }

  /// Higher layer drained a kPeerDead for `node` from the shared stream.
  void note_peer_dead(net::NodeId node) {
    if (members_->contains(node)) peer_dead_ = true;
  }

  /// True once any group member's connection has been declared dead; every
  /// subsequent run() returns kPeerDead immediately.
  [[nodiscard]] bool peer_failed() const { return peer_dead_; }

 private:
  sim::ValueTask<std::uint64_t> run_fuzzy_impl(sim::Duration chunk);
  sim::ValueTask<BarrierStatus> run_host_pe();
  sim::ValueTask<BarrierStatus> run_host_gb();
  sim::ValueTask<gm::Epoch> start_nic_barrier();  // returns the epoch
  /// Posts this member's single kHierarchical token (representative:
  /// gather + exchange + multidestination release, all firmware-resident;
  /// everyone else: gather up the block tree, complete on the release).
  sim::ValueTask<gm::Epoch> start_hier();
  sim::ValueTask<BarrierStatus> wait_barrier_complete(gm::Epoch epoch);
  sim::ValueTask<BarrierStatus> wait_msg_from(Endpoint peer);
  /// Next port event, bounded by the current deadline (nullopt = expired).
  sim::ValueTask<std::optional<nic::GmEvent>> next_event();
  sim::Task ensure_provisioned();

  gm::Port& port_;
  /// Shared with every member built from the same list. Declared before
  /// rdma_barrier_, which views it, so it outlives that barrier.
  std::shared_ptr<const MemberList> members_;
  BarrierSpec spec_;
  Family family_;  // family_of(spec_), resolved once
  std::size_t my_index_ = 0;
  std::vector<Endpoint> pe_peers_;
  GbTreeSlice gb_;

  // Hierarchical family (empty/default for the other families).
  GbTreeSlice hier_gb_;                  // my slice of the intra-block tree
  std::vector<Endpoint> hier_rep_peers_; // rep only: PE schedule over reps
  /// Rep: all block mates (the multidestination release fan-out).
  /// Non-rep: one entry, the representative (the release source).
  std::vector<Endpoint> hier_release_;
  bool hier_is_rep_ = false;
  /// Causal id and consumption time of the latest matched completion event
  /// (0 when unknown); feeds the representative hand-off span between phases.
  std::uint64_t last_completion_causal_ = 0;
  sim::SimTime last_completion_at_{};

  // Early-arrival bookkeeping (host-based path).
  std::map<Endpoint, int> pending_msgs_;
  int pending_completions_ = 0;
  bool provisioned_ = false;
  std::int64_t msg_bytes_ = 8;
  std::function<void(const nic::GmEvent&)> sink_;

  // Host-RDMA family state (null for the other families). The Domain
  // installs itself as the port's RmaSink, so at most one rdma-family member
  // may exist per port.
  std::unique_ptr<rma::Domain> rdma_domain_;
  std::unique_ptr<rma::HostBarrier> rdma_barrier_;

  // Failure bookkeeping.
  sim::SimTime deadline_at_ = sim::SimTime::max();
  bool peer_dead_ = false;
};

}  // namespace nicbar::coll
