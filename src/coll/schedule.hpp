// Barrier communication schedules, computed on the host (paper §5.1 argues
// the host should compute these — it is much faster than the NIC processor
// and only the local node's slice needs shipping to the NIC).
//
//   pe_schedule  — pairwise-exchange peer list (MPICH-style recursive
//                  pairing), extended to non-power-of-two group sizes.
//   gb_tree      — k-ary ("dimension k") gather/broadcast tree slice:
//                  this member's parent and children.
//   MemberList   — the ordered member list both take, shared by every
//                  member object built from it (one copy per group).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nic/tokens.hpp"

namespace nicbar::coll {

using nic::Endpoint;

/// An immutable, ordered list of a collective's members with its rank and
/// node indexes built once. Every member object of a group (BarrierMember,
/// GroupMember, ReduceMember, mpi::Communicator) holds the same list through
/// a shared_ptr instead of a private copy, so N members of an N-endpoint
/// group cost O(N) memory, not O(N^2). ("Group" already names a managed NIC
/// barrier-group id, hence the distinct name.)
///
/// Nothing changes after construction; the shared_ptr's atomic reference
/// count is the only shared state, so members holding one list may be built
/// and destroyed on any thread or PDES lane.
class MemberList {
 public:
  /// The list for `members`. Reuses the list this thread built last when it
  /// is still alive and holds the same endpoint bytes (same size, memcmp 0),
  /// so the N member objects a caller builds from one vector share one list
  /// with no change at the call site. Equal bytes imply equal members, so a
  /// miss (e.g. different padding bytes) only costs a fresh list, never a
  /// wrong one. The per-thread cache is a weak_ptr: it never keeps a list
  /// alive once its members are gone.
  [[nodiscard]] static std::shared_ptr<const MemberList> of(std::span<const Endpoint> members);

  explicit MemberList(std::span<const Endpoint> members);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const Endpoint& operator[](std::size_t i) const { return members_[i]; }
  [[nodiscard]] std::span<const Endpoint> members() const { return members_; }

  /// Index of the first occurrence of `e` (as a linear scan would find it),
  /// or nullopt when `e` is not a member. O(log N).
  [[nodiscard]] std::optional<std::size_t> rank_of(Endpoint e) const;

  /// True when any member endpoint lives on `node`. O(log N).
  [[nodiscard]] bool contains(net::NodeId node) const;

 private:
  std::vector<Endpoint> members_;
  /// (node << 8 | port) << 32 | index for every member, ascending: equal
  /// endpoints sort by index, so the lower bound is the first occurrence,
  /// and a node's endpoints form one contiguous run.
  std::vector<std::uint64_t> index_;
};

/// Pairwise-exchange schedule for member `me` of `group` (paper §5.1).
///
/// Power-of-two sizes: log2(N) rounds, partner in round r is index me^(1<<r).
/// Non-power-of-two extension: let p2 be the largest power of two <= N. The
/// tail members ("extras", indices >= p2) each fold into a partner in the
/// low part: an extra exchanges twice with its partner (enter + release); the
/// partner exchanges with its extra before and after the power-of-two rounds.
/// This preserves the invariant that a member's exchange with peer k only
/// completes after all members have entered the barrier.
[[nodiscard]] std::vector<Endpoint> pe_schedule(std::span<const Endpoint> group,
                                                std::size_t me);

/// This member's slice of a `dimension`-ary gather/broadcast tree laid out
/// heap-style over `group` (member 0 is the root).
struct GbTreeSlice {
  Endpoint parent;  // node == net::kInvalidNode at the root
  std::vector<Endpoint> children;
  [[nodiscard]] bool is_root() const { return parent.node == net::kInvalidNode; }
};

[[nodiscard]] GbTreeSlice gb_tree(std::span<const Endpoint> group, std::size_t me,
                                  std::size_t dimension);

/// Number of PE rounds for a group of size n (log2 ceiling + extra folds).
[[nodiscard]] std::size_t pe_round_count(std::size_t n, std::size_t me);

/// Depth of the k-ary GB tree over n members.
[[nodiscard]] std::size_t gb_tree_depth(std::size_t n, std::size_t dimension);

}  // namespace nicbar::coll
