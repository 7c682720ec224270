#include "rma/barrier.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace nicbar::rma {

namespace {

/// Waits for a flag, treating deaths of nodes *outside* the member set as
/// non-events (re-issue the wait); a member death aborts with kPeerDead.
sim::ValueTask<coll::Status> wait_member_flag(Domain& domain, Segment& seg,
                                              std::span<const nic::Endpoint> members,
                                              std::size_t self, std::uint64_t index,
                                              std::int64_t target, sim::SimTime deadline_at) {
  for (;;) {
    const coll::Status st = co_await seg.wait_ge(index, target, deadline_at);
    if (st != coll::Status::kPeerDead) co_return st;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != self && domain.is_dead(members[i].node)) co_return coll::Status::kPeerDead;
    }
  }
}

}  // namespace

// --- DisseminationBarrier ----------------------------------------------------

std::uint64_t DisseminationBarrier::rounds_for(std::size_t n) {
  std::uint64_t r = 0;
  while ((std::size_t{1} << r) < n) ++r;
  return r;
}

DisseminationBarrier::DisseminationBarrier(Domain& domain, Segment& seg,
                                           std::span<const nic::Endpoint> members,
                                           std::size_t rank)
    : domain_(domain), seg_(seg), members_(members), rank_(rank) {
  if (rank_ >= members_.size()) throw std::invalid_argument("dissemination: rank out of range");
  if (seg_.size() < rounds_for(members_.size())) {
    throw std::invalid_argument("dissemination: segment too small for member count");
  }
}

sim::ValueTask<coll::Status> DisseminationBarrier::run(sim::SimTime deadline_at) {
  ++instance_;
  const auto inst = static_cast<std::int64_t>(instance_);
  const std::size_t n = members_.size();
  if (n <= 1) co_return coll::Status::kOk;

  const std::uint64_t rounds = rounds_for(n);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t peer = (rank_ + (std::size_t{1} << r)) % n;
    future<coll::Status> put = domain_.rput(members_[peer], seg_.id(), r, inst);
    if (put.ready() && !coll::is_success(put.status())) co_return put.status();
    const coll::Status st =
        co_await wait_member_flag(domain_, seg_, members_, rank_, r, inst, deadline_at);
    if (st != coll::Status::kOk) co_return st;
  }
  co_return coll::Status::kOk;
}

// --- TreePutBarrier ----------------------------------------------------------

TreePutBarrier::TreePutBarrier(Domain& domain, Segment& seg,
                               std::span<const nic::Endpoint> members, std::size_t rank,
                               std::size_t radix)
    : domain_(domain), seg_(seg), members_(members), rank_(rank), radix_(radix) {
  if (radix_ == 0) throw std::invalid_argument("tree-put: radix must be >= 1");
  if (rank_ >= members_.size()) throw std::invalid_argument("tree-put: rank out of range");
  if (seg_.size() < words_for(radix_)) {
    throw std::invalid_argument("tree-put: segment too small for radix");
  }
}

sim::ValueTask<coll::Status> TreePutBarrier::run(sim::SimTime deadline_at) {
  ++instance_;
  const auto inst = static_cast<std::int64_t>(instance_);
  const std::size_t n = members_.size();
  if (n <= 1) co_return coll::Status::kOk;

  // Gather phase: wait for every child to rput `inst` into its slot.
  const std::size_t first_child = radix_ * rank_ + 1;
  for (std::size_t j = 0; j < radix_ && first_child + j < n; ++j) {
    const coll::Status st =
        co_await wait_member_flag(domain_, seg_, members_, rank_, j, inst, deadline_at);
    if (st != coll::Status::kOk) co_return st;
  }

  if (rank_ != 0) {
    // Report up: write our slot in the parent's segment, then wait for the
    // release flag to come back down.
    const std::size_t parent = (rank_ - 1) / radix_;
    const std::size_t slot = (rank_ - 1) % radix_;
    future<coll::Status> put = domain_.rput(members_[parent], seg_.id(), slot, inst);
    if (put.ready() && !coll::is_success(put.status())) co_return put.status();
    const coll::Status st =
        co_await wait_member_flag(domain_, seg_, members_, rank_, radix_, inst, deadline_at);
    if (st != coll::Status::kOk) co_return st;
  }

  // Release phase: propagate down as soon as our own release arrived (the
  // root's "release" is the completed gather). The fan-out is a when_all
  // batch: the member returns only after every child's release put is
  // delivered, so a slow lane cannot leak into the next instance's puts.
  std::vector<future<coll::Status>> puts;
  for (std::size_t j = 0; j < radix_ && first_child + j < n; ++j) {
    puts.push_back(domain_.rput(members_[first_child + j], seg_.id(), radix_, inst));
  }
  if (!puts.empty()) {
    future<std::vector<coll::Status>> all = when_all(std::move(puts));
    (void)co_await all;
    if (!coll::is_success(all.status())) co_return all.status();
  }
  co_return coll::Status::kOk;
}

}  // namespace nicbar::rma
