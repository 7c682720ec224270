// A thin MPI-like layer over GM (the paper's §8 future work #1: "study the
// effects of our NIC-based barrier operation on higher communication layers,
// such as MPI" — pursued by the authors in their CAC'01 follow-up).
//
// Every call pays a fixed software overhead on top of GM (matching, queue
// walks, datatype handling), which is exactly the `Send`/`HRecv` inflation
// the paper's Eq. 3 says *raises* the NIC barrier's factor of improvement.
// Collectives dispatch either to the host-based or the NIC-based
// implementations, so an application can be re-run with one flag flipped.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/group.hpp"
#include "coll/reduce.hpp"
#include "gm/port.hpp"
#include "sim/task.hpp"

namespace nicbar::mpi {

struct Message {
  int source = -1;
  std::int64_t bytes = 0;
  std::uint64_t tag = 0;
  /// 64-bit immediate carried with the message (GmEvent::value).
  std::int64_t value = 0;
};

struct CommConfig {
  /// Software cost the MPI layer adds to every call (progress engine,
  /// matching, argument checking). The knob of the paper's Eq. 3 argument.
  sim::Duration per_call_overhead = sim::microseconds(8.0);
  /// Where collectives run: the host-based algorithms, or the NIC firmware.
  coll::Location collective_location = coll::Location::kNic;
  nic::BarrierAlgorithm barrier_algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  std::size_t gb_dimension = 2;
  /// Deadline applied to every barrier() (zero = wait forever). The backstop
  /// for ranks with no direct connection to a failed node.
  sim::Duration barrier_deadline{0};
};

/// One rank's communicator; wraps a GM port whose endpoint must appear in
/// `group` (rank = its index there). Communicators built from the same
/// vector share one coll::MemberList, and so do the collectives each owns.
class Communicator {
 public:
  Communicator(gm::Port& port, const std::vector<gm::Endpoint>& group, CommConfig config = {});
  /// Same, for a caller that builds the group's MemberList once and hands
  /// it to every rank.
  Communicator(gm::Port& port, std::shared_ptr<const coll::MemberList> group,
               CommConfig config = {});

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_->size()); }
  [[nodiscard]] const std::shared_ptr<const coll::MemberList>& member_list() const {
    return group_;
  }
  [[nodiscard]] const CommConfig& config() const { return config_; }

  /// MPI_Send (eager, asynchronous completion as in GM). `value` is a 64-bit
  /// immediate carried with the message (delivered in Message::value).
  [[nodiscard]] sim::Task send(int dst_rank, std::int64_t bytes, std::uint64_t tag = 0,
                               std::int64_t value = 0);

  /// MPI_Recv: blocks until a message from `src_rank` arrives (messages from
  /// other ranks are queued for their own receives).
  [[nodiscard]] sim::ValueTask<Message> recv(int src_rank);

  /// MPI_Barrier. kOk on completion; kPeerDead/kDeadline mean the barrier
  /// aborted and this communicator is failed (MPI_ERR_PROC_FAILED-style):
  /// collective results can no longer be trusted. Point-to-point recv() from
  /// a dead peer still blocks — use the barrier deadline to detect failure.
  [[nodiscard]] sim::ValueTask<coll::BarrierStatus> barrier();

  /// True once a group member's connection died or a barrier aborted.
  [[nodiscard]] bool failed() const { return failed_; }

  /// MPI_Allreduce on a single int64.
  [[nodiscard]] sim::ValueTask<std::int64_t> allreduce(std::int64_t value, nic::ReduceOp op);

  /// MPI_Bcast of a single int64 from rank 0. Built on the reduction tree:
  /// non-roots contribute the operator identity (bitwise OR with 0).
  [[nodiscard]] sim::ValueTask<std::int64_t> bcast(std::int64_t value);

  /// MPI_Comm_split: collective over this communicator. Ranks with the same
  /// non-negative `color` form a child communicator, ordered by (key, parent
  /// rank); a negative color opts out (MPI_UNDEFINED) and yields nullptr.
  ///
  /// The child is a *managed* barrier group (coll::GroupMember): its
  /// barrier() is NIC-offloaded only while every member NIC grants a
  /// barrier-state slot, and transparently degrades to host-driven barriers
  /// (kOkDegraded) under slot exhaustion. Check child->failed() — creation
  /// can abort if a member dies mid-handshake. The child must not outlive
  /// its parent, and should be free()d when done to release NIC slots.
  [[nodiscard]] sim::ValueTask<std::unique_ptr<Communicator>> split(int color, int key);

  /// MPI_Comm_free for a communicator made by split(): drains and destroys
  /// the managed group, releasing this member's NIC slot. Collective over
  /// the child. Throws on a root communicator.
  [[nodiscard]] sim::ValueTask<coll::BarrierStatus> free();

  /// Pure computation on the host CPU (for application kernels).
  [[nodiscard]] sim::Task compute(sim::Duration d) { return port_.compute(d); }

  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

 private:
  /// Child-communicator constructor (split() path): wraps a managed group.
  Communicator(gm::Port& port, std::shared_ptr<const coll::MemberList> group,
               CommConfig config, Communicator* parent, std::uint64_t group_id);

  sim::Task ensure_provisioned();
  sim::Task send_impl(int dst_rank, std::int64_t bytes, std::uint64_t tag, std::int64_t value);
  sim::ValueTask<Message> recv_impl(int src_rank);
  sim::ValueTask<std::unique_ptr<Communicator>> split_impl(int color, int key);
  int rank_of(gm::Endpoint e) const;
  void note_peer_dead(net::NodeId node);
  /// Sink for a child communicator's collectives: queue own-group traffic,
  /// route control messages via the root registry, cascade the rest up.
  void on_foreign_event(const nic::GmEvent& ev);
  // Child-group registry (root communicator only): control messages drained
  // anywhere in the tree are routed to the owning GroupMember; messages for
  // a group a peer created before we did are parked until registration.
  void route_ctrl(const nic::GmEvent& ev);
  void register_group(coll::GroupMember* g);
  void unregister_group(std::uint64_t id);

  gm::Port& port_;
  std::shared_ptr<const coll::MemberList> group_;
  CommConfig config_;
  int rank_ = -1;
  std::unique_ptr<coll::BarrierMember> barrier_;   // root: anonymous barriers
  std::unique_ptr<coll::GroupMember> managed_;     // child: managed group
  std::unique_ptr<coll::ReduceMember> reducer_;
  std::map<int, std::deque<Message>> pending_;
  bool provisioned_ = false;
  bool failed_ = false;
  std::int64_t recv_buffer_bytes_ = 64 * 1024;

  // Communicator-tree bookkeeping (split()).
  Communicator* parent_ = nullptr;
  Communicator* root_ = this;
  std::uint64_t group_id_ = 0;  // 0 = the root's anonymous group
  int split_seq_ = 0;
  int owed_buffers_ = 0;  // receive buffers consumed by sink-routed messages
  std::map<std::uint64_t, coll::GroupMember*> child_groups_;  // root only
  std::vector<nic::GmEvent> unrouted_ctrl_;                   // root only
};

}  // namespace nicbar::mpi
