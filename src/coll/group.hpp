// Managed barrier groups: the lifecycle layer the paper's §3 design issues
// point at ("initialization and cleanup of the barrier state on the NIC",
// "support for concurrent barriers") but its prototype never builds.
//
// A GroupMember is one participant's handle of a *managed* barrier group: a
// group that is dynamically created, runs some barriers, and is destroyed —
// releasing its NIC state for reuse. The lifecycle state machine:
//
//         create()                 barrier()xN              destroy()
//   kNew ─────────► kActive ◄──────────────────► kDegraded ─────────► kDraining ─► kFreed
//                      │        (slot admission /      │
//                      │         re-promotion)         │
//                      └──────────► kFailed ◄──────────┘  (peer died / deadline)
//
// create() is a two-phase handshake over ordinary reliable GM sends (tag
// kGroupCtrlMsgTag): every member tries to allocate a NIC barrier-state slot
// locally, members report slot success to the coordinator (members[0]), and
// the coordinator broadcasts the commit — NIC-offloaded mode iff *every*
// member got a slot. Admission rejection is not an error: the group comes up
// degraded, runs host-driven barriers over plain gm:: sends, and returns
// kOkDegraded from every barrier() until a periodic re-promotion handshake
// finds slots free on every NIC, at which point it transparently switches
// back to NIC offload (and barrier() returns kOk again).
//
// destroy() drains in-flight rounds by construction — a member only sends
// its destroy-ack after its last barrier() returned, and barrier semantics
// guarantee every within-group message addressed to a member was consumed
// before that member's own completion — then the commit releases each
// member's slot. Packets that outlive the group (late retransmits) are
// fenced by the NIC using the group id stamped on every barrier packet (see
// nic::SlotTable).
//
// Failure semantics match coll::BarrierMember: kPeerDead/kDeadline abort a
// handshake or barrier cleanly (never hang, provided ctrl_deadline is set
// when peers can die silently), the group transitions to kFailed, and
// destroy() still releases local NIC state — slots never leak.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/family.hpp"
#include "gm/port.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace nicbar::coll {

enum class GroupState : std::uint8_t {
  kNew,       // constructed; create() not yet run
  kActive,    // created, NIC-offloaded barriers
  kDegraded,  // created, host-fallback barriers (slot admission rejected)
  kDraining,  // destroy() in progress
  kFreed,     // destroyed; all local NIC state released
  kFailed,    // a handshake or barrier aborted (peer dead / deadline)
};

[[nodiscard]] const char* to_string(GroupState s);

/// Group id encoded in a control message's 64-bit value (kGroupCtrlMsgTag).
/// Lets a layer that owns the port's event stream (mpi::Communicator) route
/// drained control messages to the right GroupMember's note_ctrl().
[[nodiscard]] std::uint64_t ctrl_message_group(std::int64_t value);

struct GroupConfig {
  /// Fabric-unique group id. Must be non-zero (0 is the legacy anonymous
  /// group) and fit in 47 bits (it shares the control-message value field
  /// with the handshake opcode).
  std::uint64_t id = 0;

  /// The family run while offloaded; it must be able to start a managed
  /// group (FamilyRow::managed). A degraded group runs the row's host
  /// fallback instead (hier falls back to flat host PE).
  FamilyChoice barrier;
  std::size_t hier_block = 0;  // hier: members per leaf block; 0 = one block

  /// Deadline for each barrier() run (0 = wait forever); see BarrierSpec.
  sim::Duration deadline{0};

  /// Backstop for the create/promote/destroy handshakes (0 = wait forever).
  /// REQUIRED for liveness under member crashes: a coordinator waiting for
  /// an ack from a crashed member may have no in-flight traffic to it, so no
  /// kPeerDead ever arrives — only this deadline ends the wait.
  sim::Duration ctrl_deadline{0};

  /// Attempt re-promotion to NIC offload after every this many degraded
  /// barriers (0 = never re-promote). All members count identically —
  /// barrier() is collective — so the attempts line up without extra
  /// synchronisation.
  int promote_every = 4;
};

class GroupMember {
 public:
  /// `members` lists every participating endpoint; this member is the entry
  /// whose endpoint equals port.endpoint(). members[0] coordinates. Members
  /// built from the same vector share one MemberList (MemberList::of).
  GroupMember(gm::Port& port, const std::vector<Endpoint>& members, GroupConfig config);
  /// Joins an existing shared list (mpi::Communicator hands its own). Both
  /// barrier paths this member owns hold the same list.
  GroupMember(gm::Port& port, std::shared_ptr<const MemberList> members, GroupConfig config);

  /// Phase 1+2 group creation. Returns kOk (NIC-offloaded), kOkDegraded
  /// (slot admission rejected somewhere — host fallback), or a failure
  /// status (group is kFailed and must still be destroy()ed to release any
  /// local state).
  [[nodiscard]] sim::ValueTask<BarrierStatus> run_create();

  /// One barrier over the group's current mode. kOk (NIC), kOkDegraded
  /// (host fallback), or a failure status. A degraded group periodically
  /// retries slot allocation (see GroupConfig::promote_every).
  [[nodiscard]] sim::ValueTask<BarrierStatus> run_barrier();

  /// Drains and destroys the group, releasing this member's NIC slot. On a
  /// kFailed group this skips the handshake (peers may be dead) and just
  /// releases local state, returning kOk.
  [[nodiscard]] sim::ValueTask<BarrierStatus> run_destroy();

  [[nodiscard]] GroupState state() const { return state_; }
  [[nodiscard]] std::uint64_t id() const { return config_.id; }
  [[nodiscard]] bool is_coordinator() const { return my_index_ == 0; }
  [[nodiscard]] std::size_t size() const { return members_->size(); }
  [[nodiscard]] const std::shared_ptr<const MemberList>& member_list() const { return members_; }

  /// Lifetime counters for reports and tests.
  [[nodiscard]] std::uint64_t barriers_run() const { return barriers_run_; }
  [[nodiscard]] std::uint64_t degraded_barriers() const { return degraded_barriers_; }
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }

  /// Events that are not this group's business (foreign data traffic, other
  /// groups' control messages) are handed here when a higher layer shares
  /// the port (mpi::Communicator installs its funnel).
  void set_event_sink(std::function<void(const nic::GmEvent&)> sink);

  /// Higher layer drained one of this group's control messages from a
  /// stream it owns (mpi::Communicator routes by the group id encoded in
  /// the message value).
  void note_ctrl(const nic::GmEvent& ev);

  /// Higher layer drained a kPeerDead for `node` from the shared stream.
  void note_peer_dead(net::NodeId node);

 private:
  struct CtrlWait {
    BarrierStatus status = BarrierStatus::kOk;
    bool all_flags = true;  // AND of the flag bits of the collected messages
  };

  /// Collect `need` control messages of `kind` for this group (early
  /// arrivals in pending_ctrl_ count), bounded by ctrl_deadline.
  sim::ValueTask<CtrlWait> collect_ctrl(std::uint8_t kind, std::size_t need);
  sim::Task send_ctrl(Endpoint dst, std::uint8_t kind, bool flag);
  /// The shared shape of create() and the re-promotion attempt: local slot
  /// try, ack to the coordinator, commit broadcast. On success *mode_out* is
  /// the committed decision (true = NIC offload).
  sim::ValueTask<BarrierStatus> admission_handshake(std::uint8_t ack_kind,
                                                    std::uint8_t commit_kind, bool* nic_out);
  sim::ValueTask<BarrierStatus> attempt_promotion();
  sim::Task ensure_provisioned();
  void release_local_slot();

  gm::Port& port_;
  std::shared_ptr<const MemberList> members_;
  GroupConfig config_;
  std::size_t my_index_ = 0;

  GroupState state_ = GroupState::kNew;
  BarrierStatus failed_status_ = BarrierStatus::kOk;
  bool slot_held_ = false;

  std::unique_ptr<BarrierMember> nic_bm_;   // Location::kNic, group = id
  std::unique_ptr<BarrierMember> host_bm_;  // Location::kHost fallback

  struct CtrlMsg {
    Endpoint from;
    std::uint8_t kind = 0;
    bool flag = false;
  };
  std::deque<CtrlMsg> pending_ctrl_;  // early arrivals for this group
  std::function<void(const nic::GmEvent&)> sink_;
  int owed_buffers_ = 0;  // sunk control messages whose buffer we still owe
  bool provisioned_ = false;
  bool peer_dead_ = false;

  std::uint64_t barriers_run_ = 0;
  std::uint64_t degraded_barriers_ = 0;
  std::uint64_t promotions_ = 0;
  int degraded_since_promote_ = 0;

  std::int64_t ctrl_bytes_ = 16;
};

}  // namespace nicbar::coll
