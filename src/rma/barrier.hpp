// Host-driven RDMA barriers — the third algorithm family.
//
// The paper's baseline (§2, §7) is a *host-based* barrier: host CPUs drive
// the algorithm and the NIC only moves bytes. These two classes reproduce
// that family on the rma:: one-sided layer, so the repo can compare all
// three implementations on identical hardware models:
//
//   NIC-PE / NIC-GB  — NIC-resident (coll::, the paper's contribution);
//   host-dissemination — log2(N) rounds; in round r each rank rputs its
//       instance number into word r of rank (me + 2^r) mod N and spins on
//       its own word r (the classic Hensgen/Finkel/Manber schedule);
//   host-tree-put — radix-k gather/release tree (cf. SNIPPETS.md snippet 1,
//       the FJMPI Tofu barrier): children rput into per-child slots of the
//       parent's segment, the root releases down the tree via a flag word.
//
// Flag protocol: every flag word carries a *monotonic instance number*, so
// no flags are ever reset between barriers — instance i+1's waits cannot be
// satisfied by instance i's writes, and a slow writer from instance i just
// overwrites nothing (words only grow). Each word has a single writer per
// direction, and CAS is never mixed with flag words (the rma:: ordering
// contract).
//
// Failure: a member death aborts run() with kPeerDead (deaths outside the
// member set are ignored and the wait re-issued); a deadline aborts with
// kDeadline. After a failed instance the group is not reusable for the same
// members (no flag-state recovery is attempted) — matching the NIC family,
// where a failed epoch invalidates the group.
#pragma once

#include <cstdint>
#include <span>

#include "coll/status.hpp"
#include "rma/domain.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace nicbar::rma {

/// Common surface of the host-driven barrier algorithms, so callers (and
/// coll::'s dispatcher) can hold either behind one handle.
class HostBarrier {
 public:
  virtual ~HostBarrier() = default;
  /// One barrier instance. kOk on completion; kPeerDead / kDeadline abort.
  [[nodiscard]] virtual sim::ValueTask<coll::Status> run(
      sim::SimTime deadline_at = sim::SimTime::max()) = 0;
  /// Number of instances started (the current flag value).
  [[nodiscard]] virtual std::uint64_t instance() const = 0;
};

/// Dissemination barrier: ceil(log2 N) rounds of one rput + one flag wait.
/// `seg` needs at least rounds_for(members.size()) words; all members must
/// use the same member order and segment layout. `members` is a view: its
/// owner (coll::BarrierMember's shared member list) must outlive the barrier.
class DisseminationBarrier final : public HostBarrier {
 public:
  DisseminationBarrier(Domain& domain, Segment& seg, std::span<const nic::Endpoint> members,
                       std::size_t rank);

  [[nodiscard]] sim::ValueTask<coll::Status> run(
      sim::SimTime deadline_at = sim::SimTime::max()) override;
  [[nodiscard]] std::uint64_t instance() const override { return instance_; }

  /// Flag words (= rounds) needed for an N-member group.
  [[nodiscard]] static std::uint64_t rounds_for(std::size_t n);

 private:
  Domain& domain_;
  Segment& seg_;
  std::span<const nic::Endpoint> members_;
  std::size_t rank_;
  std::uint64_t instance_ = 0;
};

/// Radix-k gather/release tree barrier. `seg` needs radix+1 words: words
/// [0..radix-1] are the per-child gather slots, word [radix] is the release
/// flag. Rank 0 is the root; rank i's parent is (i-1)/k, its children are
/// k*i+1 .. k*i+k. `members` is a view, as for DisseminationBarrier.
class TreePutBarrier final : public HostBarrier {
 public:
  TreePutBarrier(Domain& domain, Segment& seg, std::span<const nic::Endpoint> members,
                 std::size_t rank, std::size_t radix = 2);

  [[nodiscard]] sim::ValueTask<coll::Status> run(
      sim::SimTime deadline_at = sim::SimTime::max()) override;
  [[nodiscard]] std::uint64_t instance() const override { return instance_; }

  /// Flag words needed for a radix-k tree (radix gather slots + release).
  [[nodiscard]] static std::uint64_t words_for(std::size_t radix) { return radix + 1; }

 private:
  Domain& domain_;
  Segment& seg_;
  std::span<const nic::Endpoint> members_;
  std::size_t rank_;
  std::size_t radix_;
  std::uint64_t instance_ = 0;
};

}  // namespace nicbar::rma
