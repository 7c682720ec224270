#include "model/timing.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "coll/schedule.hpp"

namespace nicbar::model {

/// For a power of two every member runs log2(N) exchanges in lockstep. With
/// a non-power-of-two tail the members folding an extra run two exchanges
/// more than their neighbours, and that skew compounds: a member's hypercube
/// partner may itself be waiting on a skewed partner. So run the exchanges
/// at round granularity: a pair exchanges once each has reached the other in
/// its schedule, one round after the later of the two got there. Queueing
/// within a round (shared wires) is ignored, which is what the oracle's
/// non-exact tolerance covers.
std::size_t pe_critical_rounds(std::size_t nodes) {
  if (nodes <= 1) return 0;
  std::size_t p2 = 1;
  while (p2 * 2 <= nodes) p2 *= 2;
  // Partners in order, by coll::pe_schedule's pairing over indices: a member
  // past the power of two enters through its partner and is released by it.
  std::vector<std::vector<std::size_t>> sched(nodes);
  for (std::size_t m = 0; m < nodes; ++m) {
    if (m >= p2) {
      sched[m] = {m - p2, m - p2};
      continue;
    }
    if (m + p2 < nodes) sched[m].push_back(m + p2);
    for (std::size_t bit = 1; bit < p2; bit <<= 1) sched[m].push_back(m ^ bit);
    if (m + p2 < nodes) sched[m].push_back(m + p2);
  }
  std::vector<std::size_t> next(nodes, 0), done(nodes, 0);
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t m = 0; m < nodes; ++m) {
      if (next[m] == sched[m].size()) continue;
      const std::size_t q = sched[m][next[m]];
      if (next[q] == sched[q].size() || sched[q][next[q]] != m) continue;
      done[m] = done[q] = std::max(done[m], done[q]) + 1;
      ++next[m];
      ++next[q];
      moved = true;
    }
  }
  return *std::max_element(done.begin(), done.end());
}

Form form(const coll::BarrierSpec& spec, std::size_t nodes) {
  // GB: the deepest leaf's gather up the tree, then the broadcast back down.
  const bool pe = spec.algorithm == nic::BarrierAlgorithm::kPairwiseExchange;
  return {spec.location, spec.algorithm,
          pe ? pe_critical_rounds(nodes) : 2 * coll::gb_tree_depth(nodes, spec.gb_dimension)};
}

namespace {

std::string us(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", d.us());
  return buf;
}

bool charges(const Form& f, const Term& term) {
  if (f.location == coll::Location::kHost) return (term.chains & kHostMessage) != 0;
  const bool pe = f.algorithm == nic::BarrierAlgorithm::kPairwiseExchange;
  return (term.chains & (pe ? kNicPe : kNicGb)) != 0;
}

/// A host barrier repeats its whole message; a NIC barrier its round terms.
bool per_round(const Form& f, const Term& term) {
  return f.location == coll::Location::kHost || term.per_round;
}

struct Item {
  std::string_view label;
  sim::Duration cost{0};
  bool per_round;
};

/// "a 1.00 + R x (b 2.00 + c 3.00) + d 4.00": consecutive per-round items
/// share one group.
std::string render(const std::vector<Item>& items, std::size_t rounds) {
  std::string out;
  bool open = false;
  for (const Item& it : items) {
    if (open && !it.per_round) out += ")";
    if (!out.empty()) out += " + ";
    if (it.per_round && !open) out += std::to_string(rounds) + " x (";
    out += std::string(it.label) + " " + us(it.cost);
    open = it.per_round;
  }
  return open ? out + ")" : out;
}

}  // namespace

sim::Duration charge(const Form& f, const Term& term, const Inputs& in) {
  if (!charges(f, term)) return sim::Duration{0};
  return per_round(f, term) ? static_cast<std::int64_t>(f.rounds) * term.cost(in) : term.cost(in);
}

Sum sum(const Form& f, const Inputs& in) {
  Sum s;
  for (const Term& t : kTerms) {
    (t.phase == Phase::kOmitted ? s.omitted : s.paper) += charge(f, t, in);
  }
  return s;
}

std::string explain(const Form& f, const Inputs& in) {
  // A chain's rows run in phase order, so each phase is one run of rows.
  std::vector<Item> paper, omitted;
  for (const Term& t : kTerms) {
    if (!charges(f, t)) continue;
    const bool left_out = t.phase == Phase::kOmitted;
    const std::string_view label =
        left_out ? t.name : kPhaseNames[static_cast<std::size_t>(t.phase)];
    std::vector<Item>& items = left_out ? omitted : paper;
    if (items.empty() || items.back().label != label) items.push_back({label, {}, per_round(f, t)});
    items.back().cost += t.cost(in);
  }
  const Sum s = sum(f, in);
  return std::string(f.location == coll::Location::kHost ? "  Eq.1 = " : "  Eq.2 = ") +
         render(paper, f.rounds) + " = " + us(s.paper) + " us\n  omitted by Eq. 1-2: " +
         render(omitted, f.rounds) + " = " + us(s.omitted) + " us\n";
}

}  // namespace nicbar::model
