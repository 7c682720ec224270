// Allreduce over GM — host-based and NIC-based (the §8 extension).
//
// Both variants use a k-ary GB tree: partial values combine going up, the
// root's result is broadcast down. The host-based variant drives every hop
// through ordinary GM messages (the value rides in the message tag); the
// NIC-based variant posts one reduce token and the firmware does the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/schedule.hpp"
#include "gm/port.hpp"
#include "sim/task.hpp"

namespace nicbar::coll {

class ReduceMember {
 public:
  /// `group` lists every participating endpoint; this member is the entry
  /// whose endpoint equals port.endpoint(). Members built from the same
  /// vector share one MemberList (MemberList::of).
  ReduceMember(gm::Port& port, const std::vector<Endpoint>& group, Location location,
               nic::ReduceOp op, std::size_t dimension = 2);
  /// Joins an existing shared list (mpi::Communicator hands its own).
  ReduceMember(gm::Port& port, std::shared_ptr<const MemberList> members, Location location,
               nic::ReduceOp op, std::size_t dimension = 2);

  /// Runs one allreduce; every member gets the combined value.
  [[nodiscard]] sim::ValueTask<std::int64_t> allreduce(std::int64_t contribution);

  [[nodiscard]] const std::shared_ptr<const MemberList>& member_list() const { return members_; }
  [[nodiscard]] const GbTreeSlice& tree() const { return gb_; }
  [[nodiscard]] std::size_t my_index() const { return my_index_; }

  /// Event-sharing hooks for a higher layer (see BarrierMember::set_event_sink).
  void set_event_sink(std::function<void(const nic::GmEvent&)> sink) {
    sink_ = std::move(sink);
  }
  void note_result(std::int64_t v) { pending_results_.push_back(v); }

 private:
  sim::ValueTask<std::int64_t> allreduce_host(std::int64_t contribution);
  sim::ValueTask<std::int64_t> allreduce_nic(std::int64_t contribution);
  sim::ValueTask<std::int64_t> wait_value_from(Endpoint peer, std::uint64_t tag);
  sim::Task ensure_provisioned();

  gm::Port& port_;
  std::shared_ptr<const MemberList> members_;
  Location location_;
  nic::ReduceOp op_;
  std::size_t my_index_ = 0;
  GbTreeSlice gb_;

  std::map<std::pair<Endpoint, std::uint64_t>, std::vector<std::int64_t>> pending_values_;
  std::vector<std::int64_t> pending_results_;
  bool provisioned_ = false;
  std::int64_t msg_bytes_ = 16;
  std::function<void(const nic::GmEvent&)> sink_;
};

}  // namespace nicbar::coll
