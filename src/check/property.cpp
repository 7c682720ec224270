#include "check/property.hpp"

#include <cstdarg>
#include <cstdio>
#include <exception>
#include <numeric>
#include <utility>

#include "coll/family.hpp"
#include "coll/sweep.hpp"
#include "fabric/topology.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "wl/spec.hpp"

namespace nicbar::sim::check {

namespace {

__attribute__((format(printf, 1, 2))) std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

void fail(PropertyReport& rep, std::string property, std::uint64_t case_seed, std::string detail) {
  rep.failures.push_back({std::move(property), case_seed, std::move(detail)});
}

coll::ExperimentParams make_params(std::size_t nodes, coll::Family family, std::size_t dim,
                                   const nic::NicConfig& cfg, int reps) {
  coll::ExperimentParams p = coll::experiment(cfg, nodes, reps);
  p.spec = coll::family_spec({family, dim});
  return p;
}

const char* label(coll::Family family) { return coll::family_row(family).label.data(); }

/// The topologies a case draws from, by index rather than enum order. The
/// single switch stays at index 0, so its cases replay as they always have.
constexpr host::Topology kTopologies[] = {host::Topology::kSingleSwitch,
                                          host::Topology::kFatTree, host::Topology::kLeafSpine};

host::Topology draw_topology(Rng& rng) { return kTopologies[rng.below(3)]; }

/// For a fabric topology, draws radix in [3, 8] and oversubscription in
/// [1, 3], re-drawing until the shape holds `nodes`. Draws nothing for the
/// single switch. Call after every other draw of a case, so adding these
/// draws leaves the single-switch cases unchanged.
void draw_fabric_shape(Rng& rng, host::ClusterParams& c, std::size_t nodes) {
  if (c.topology == host::Topology::kSingleSwitch) return;
  const fabric::Kind kind = c.topology == host::Topology::kFatTree ? fabric::Kind::kFatTree
                                                                   : fabric::Kind::kLeafSpine;
  do {
    c.fabric_radix = 3 + rng.below(6);
    c.fabric_oversub = 1 + rng.below(3);
  } while (fabric::capacity(kind, c.fabric_radix, c.fabric_oversub) < nodes);
}

std::string topology_summary(const host::ClusterParams& c) {
  const host::TopologyName& t = host::topology_name(c.topology);
  if (!t.shaped) return std::string(t.name);
  return fmt("%s(radix %zu, %zu:1)", t.name.data(), c.fabric_radix, c.fabric_oversub);
}

/// A family drawn uniformly from the table rows that can run as `use` asks.
coll::Family draw_family(Rng& rng, const coll::FamilyUse& use) {
  std::vector<coll::Family> allowed;
  for (const coll::FamilyRow& row : coll::kFamilies) {
    if (coll::family_refusal(row.family, use).empty()) allowed.push_back(row.family);
  }
  return allowed[rng.below(static_cast<std::uint32_t>(allowed.size()))];
}

// --- Deterministic metamorphic properties ----------------------------------

/// P1: per family, one barrier can only get slower as the group grows (more
/// rounds / deeper trees, same per-hop costs).
void prop_latency_monotone_in_n(PropertyReport& rep) {
  ++rep.properties_run;
  for (const coll::FamilyRow& row : coll::kFamilies) {
    Duration prev{0};
    std::size_t prev_n = 0;
    for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
      const std::size_t dim = n < 3 ? 1 : 2;
      const auto res =
          coll::run_barrier_experiment(make_params(n, row.family, dim, nic::lanai43(), 8));
      if (prev_n != 0 && res.total < prev) {
        fail(rep, "latency-monotone-in-n", 0,
             fmt("%s: total(n=%zu)=%lld ps < total(n=%zu)=%lld ps", label(row.family), n,
                 static_cast<long long>(res.total.ps()), prev_n,
                 static_cast<long long>(prev.ps())));
      }
      prev = res.total;
      prev_n = n;
    }
  }
}

/// P2: doubling the NIC clock and PCI bandwidth (LANai 4.3 -> 7.2) must
/// strictly reduce latency for every family.
void prop_clock_scaling_direction(PropertyReport& rep) {
  ++rep.properties_run;
  for (const coll::FamilyRow& row : coll::kFamilies) {
    const auto slow =
        coll::run_barrier_experiment(make_params(8, row.family, 2, nic::lanai43(), 8));
    const auto fast =
        coll::run_barrier_experiment(make_params(8, row.family, 2, nic::lanai72(), 8));
    if (!(fast.total < slow.total)) {
      fail(rep, "clock-scaling-direction", 0,
           fmt("%s n=8: LANai-7.2 total %lld ps is not below LANai-4.3 total %lld ps",
               label(row.family), static_cast<long long>(fast.total.ps()),
               static_cast<long long>(slow.total.ps())));
    }
  }
}

/// P3: on a symmetric single-switch fabric the latency of a lockstep PE
/// barrier is invariant — to the picosecond — under permuting which node
/// hosts which member rank.
void prop_rank_permutation_invariance(PropertyReport& rep, std::uint64_t suite_seed) {
  ++rep.properties_run;
  Rng rng(suite_seed ^ 0xa5a5a5a5ULL);
  std::vector<net::NodeId> perm(8);
  std::iota(perm.begin(), perm.end(), net::NodeId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(static_cast<std::uint32_t>(i))]);
  }
  for (const coll::Family family : {coll::Family::kHostPe, coll::Family::kNicPe}) {
    auto p = make_params(8, family, 1, nic::lanai43(), 8);
    const auto identity = coll::run_barrier_experiment(p);
    p.node_order = perm;
    const auto permuted = coll::run_barrier_experiment(p);
    if (identity.total != permuted.total) {
      fail(rep, "rank-permutation-invariance", 0,
           fmt("%s n=8: identity total %lld ps != permuted total %lld ps", label(family),
               static_cast<long long>(identity.total.ps()),
               static_cast<long long>(permuted.total.ps())));
    }
  }
}

/// P4: a SweepPlan must produce bit-identical results for any worker count
/// (the --jobs contract).
void prop_parallel_sweep_bit_equality(PropertyReport& rep) {
  ++rep.properties_run;
  coll::SweepPlan plan;
  plan.add("nic-pe-n4", make_params(4, coll::Family::kNicPe, 1, nic::lanai43(), 6));
  plan.add("host-pe-n3", make_params(3, coll::Family::kHostPe, 1, nic::lanai43(), 5));
  plan.add_gb_sweep("nic-gb-n5", make_params(5, coll::Family::kNicGb, 2, nic::lanai72(), 5));
  const auto serial = plan.run({.workers = 1});
  const auto sharded = plan.run({.workers = 4});
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    const auto& a = serial.cases[i];
    const auto& b = sharded.cases[i];
    if (a.result.total != b.result.total || a.result.mean_us != b.result.mean_us ||
        a.gb_dimension != b.gb_dimension) {
      fail(rep, "parallel-sweep-bit-equality", 0,
           fmt("case '%s': serial (total=%lld ps, dim=%zu) != 4-worker (total=%lld ps, dim=%zu)",
               a.label.c_str(), static_cast<long long>(a.result.total.ps()), a.gb_dimension,
               static_cast<long long>(b.result.total.ps()), b.gb_dimension));
    }
  }
}

/// Random — but always-valid — workload spec for the round-trip property.
/// Durations stay at integer microseconds and weights at one decimal place so
/// the text form is lossless.
wl::WorkloadSpec random_spec(Rng& rng) {
  wl::WorkloadSpec s;
  s.cluster_nodes = 32;
  s.placement = static_cast<wl::Placement>(rng.below(3));
  switch (rng.below(3)) {
    case 0:
      s.arrival.kind = wl::ArrivalKind::kFixed;
      s.arrival.interval = microseconds(rng.below(500));
      break;
    case 1:
      s.arrival.kind = wl::ArrivalKind::kPoisson;
      s.arrival.interval = microseconds(1 + rng.below(500));
      break;
    default:
      s.arrival.kind = wl::ArrivalKind::kClosedLoop;
      s.arrival.width = 1 + rng.below(4);
      s.arrival.think = microseconds(rng.below(100));
      break;
  }
  s.seed = rng.next_u64() & ((std::uint64_t{1} << 53) - 1);
  s.hist_max_us = static_cast<double>(1000 + rng.below(20000));
  s.cluster.nic = rng.chance(0.5) ? nic::lanai72() : nic::lanai43();
  s.cluster.nic.barrier_reliability = static_cast<nic::BarrierReliability>(rng.below(3));
  s.cluster.topology = draw_topology(rng);
  const std::size_t classes = 1 + rng.below(2);
  for (std::size_t i = 0; i < classes; ++i) {
    wl::JobClass c;
    c.name = fmt("c%zu", i);
    c.count = 1 + rng.below(2);
    c.nodes = 2 + rng.below(7);  // 2 classes x 2 jobs x 8 nodes still fit 32
    c.iterations = 1 + static_cast<int>(rng.below(200));
    c.mix.barrier = static_cast<double>(1 + rng.below(10)) / 10.0;
    if (rng.chance(0.3)) {
      // Fuzzy barriers must be barrier-only (validate()).
      c.mix.fuzzy = static_cast<double>(1 + rng.below(5)) / 10.0;
    } else {
      c.mix.broadcast = static_cast<double>(rng.below(4)) / 10.0;
      c.mix.allreduce = static_cast<double>(rng.below(4)) / 10.0;
      if (!c.mix.barrier_only() && rng.chance(0.5)) {
        c.layer_overhead = microseconds(1 + rng.below(5));
      }
    }
    c.compute_mean = microseconds(rng.below(100));
    c.compute_imbalance = static_cast<double>(rng.below(10)) / 10.0;
    c.start_skew = microseconds(rng.below(20));
    c.fuzzy_chunk = microseconds(1 + rng.below(10));
    // Only the families that can run the drawn mix.
    c.barrier.family =
        draw_family(rng, {.fuzzy = c.mix.fuzzy > 0.0, .reductions = !c.mix.barrier_only()});
    const std::size_t dim = 1 + rng.below(static_cast<std::uint32_t>(c.nodes - 1));
    if (coll::family_row(c.barrier.family).dim != coll::DimRule::kIgnored) c.barrier.dim = dim;
    if (rng.chance(0.3)) c.deadline = microseconds(1000 + rng.below(1000));
    s.classes.push_back(std::move(c));
  }
  draw_fabric_shape(rng, s.cluster, s.cluster_nodes);
  return s;
}

/// P5: print(spec) must re-parse to a structurally equal spec, and the text
/// form must be a fixed point (print(parse(print(s))) == print(s)).
void prop_spec_round_trip(PropertyReport& rep, std::uint64_t suite_seed) {
  ++rep.properties_run;
  Rng rng(suite_seed ^ 0x0ddba115eedULL);
  for (int i = 0; i < 20; ++i) {
    const wl::WorkloadSpec spec = random_spec(rng);
    const std::string text = wl::print_spec(spec);
    try {
      const wl::WorkloadSpec back = wl::parse_workload_spec(text);
      if (!wl::spec_equal(spec, back)) {
        fail(rep, "spec-round-trip", 0,
             fmt("case %d: re-parsed spec differs structurally; text:\n%s", i, text.c_str()));
      } else if (wl::print_spec(back) != text) {
        fail(rep, "spec-round-trip", 0,
             fmt("case %d: print(parse(text)) is not a fixed point; text:\n%s", i, text.c_str()));
      }
    } catch (const std::exception& e) {
      fail(rep, "spec-round-trip", 0,
           fmt("case %d: printed spec failed to re-parse (%s); text:\n%s", i, e.what(),
               text.c_str()));
    }
  }
}

// --- Randomised fuzz cases --------------------------------------------------

void run_one_fuzz(std::uint64_t case_seed, PropertyReport& rep, bool recheck_determinism) {
  std::string summary;
  coll::ExperimentParams p;
  try {
    p = generate_fuzz_case(case_seed, &summary);
  } catch (const std::exception& e) {
    fail(rep, "fuzz.generator", case_seed, e.what());
    return;
  }
  try {
    const auto res = coll::run_barrier_experiment(p);
    const bool faulty = !p.cluster.faults.empty();
    if (!faulty) {
      if (res.barrier_failures != 0 || res.stalled_members != 0) {
        fail(rep, "fuzz.fault-free-completion", case_seed,
             fmt("%s: %llu failures, %llu stalled members on a fault-free fabric",
                 summary.c_str(), static_cast<unsigned long long>(res.barrier_failures),
                 static_cast<unsigned long long>(res.stalled_members)));
      }
      const auto expected = static_cast<std::uint64_t>(p.nodes) * static_cast<std::uint64_t>(p.reps);
      if (coll::family_row(coll::family_of(p.spec)).completes_on_nic &&
          res.barriers_completed != expected) {
        fail(rep, "fuzz.barrier-accounting", case_seed,
             fmt("%s: %llu NIC barrier completions, expected %llu", summary.c_str(),
                 static_cast<unsigned long long>(res.barriers_completed),
                 static_cast<unsigned long long>(expected)));
      }
      if (res.total.ps() <= 0) {
        fail(rep, "fuzz.time-advanced", case_seed,
             fmt("%s: loop consumed %lld ps of simulated time", summary.c_str(),
                 static_cast<long long>(res.total.ps())));
      }
    }
    if (recheck_determinism) {
      const auto again = coll::run_barrier_experiment(p);
      if (again.total != res.total || again.barriers_completed != res.barriers_completed) {
        fail(rep, "fuzz.determinism", case_seed,
             fmt("%s: re-run diverged (total %lld vs %lld ps)", summary.c_str(),
                 static_cast<long long>(res.total.ps()),
                 static_cast<long long>(again.total.ps())));
      }
    }
    if (p.cluster.pdes_partitions > 1) {
      // Partitioned case: the serial engine must produce the identical
      // timeline (total, per-member completions, NIC counters) — the
      // random partition boundaries above must be unobservable.
      coll::ExperimentParams serial = p;
      serial.cluster.pdes_partitions = 1;
      serial.cluster.pdes_workers = 0;
      const auto sres = coll::run_barrier_experiment(serial);
      if (sres.total != res.total || sres.member_end_times != res.member_end_times ||
          sres.barriers_completed != res.barriers_completed ||
          sres.retransmissions != res.retransmissions ||
          sres.link_packets_dropped != res.link_packets_dropped) {
        fail(rep, "fuzz.pdes-bit-identity", case_seed,
             fmt("%s: partitioned total %lld ps (%llu retx, %llu drops) != serial %lld ps "
                 "(%llu retx, %llu drops)",
                 summary.c_str(), static_cast<long long>(res.total.ps()),
                 static_cast<unsigned long long>(res.retransmissions),
                 static_cast<unsigned long long>(res.link_packets_dropped),
                 static_cast<long long>(sres.total.ps()),
                 static_cast<unsigned long long>(sres.retransmissions),
                 static_cast<unsigned long long>(sres.link_packets_dropped)));
      }
    }
  } catch (const InvariantViolation& v) {
    fail(rep, "fuzz.invariant-violation", case_seed, fmt("%s: %s", summary.c_str(), v.what()));
  } catch (const std::exception& e) {
    fail(rep, "fuzz.exception", case_seed, fmt("%s: %s", summary.c_str(), e.what()));
  }
  ++rep.fuzz_cases_run;
}

}  // namespace

std::uint64_t fuzz_case_seed(std::uint64_t suite_seed, std::size_t index) {
  // splitmix64 finaliser over a golden-ratio stride: any (suite, index) pair
  // gets an independent, stateless 64-bit stream seed.
  std::uint64_t x = suite_seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

coll::ExperimentParams generate_fuzz_case(std::uint64_t case_seed, std::string* summary) {
  Rng rng(case_seed);
  coll::ExperimentParams p;
  p.nodes = 2 + rng.below(9);  // 2..10: covers pow2, odd folds, partial leaves
  p.reps = 3 + static_cast<int>(rng.below(10));
  p.seed = case_seed | 1;
  const coll::Family family = draw_family(rng, {});
  p.spec = coll::family_spec({family, 1 + rng.below(static_cast<std::uint32_t>(p.nodes - 1))});
  p.cluster.nic = rng.chance(0.5) ? nic::lanai72() : nic::lanai43();
  p.cluster.topology = draw_topology(rng);
  p.max_start_skew = microseconds(rng.below(201));

  auto& fp = p.cluster.faults;
  if (rng.chance(0.5)) {
    fp.seed = case_seed ^ 0x5bd1e995U;
    if (rng.chance(0.7)) fp.loss.push_back({"", rng.uniform(0.001, 0.15)});
    if (rng.chance(0.3)) fp.corruption.push_back({"", rng.uniform(0.001, 0.05)});
    if (rng.chance(0.3)) {
      fp.bursts.push_back({"", rng.uniform(0.01, 0.2), rng.uniform(0.1, 0.5), 0.0,
                           rng.uniform(0.5, 1.0)});
    }
    if (rng.chance(0.2)) {
      const SimTime from{microseconds(rng.below(500)).ps()};
      fp.link_down.push_back({"", from, from + microseconds(1 + rng.below(200))});
    }
  }
  if (!fp.empty() && coll::family_row(family).completes_on_nic) {
    // Unreliable NIC barriers deadlock under loss by design; a lossy fuzz
    // case must run one of the reliable modes so stalls are real bugs.
    p.cluster.nic.barrier_reliability = rng.chance(0.5)
                                            ? nic::BarrierReliability::kSharedStream
                                            : nic::BarrierReliability::kSeparateAcks;
  }

  // Half the cases run on the partitioned engine with a random partition
  // count (clamped to the node count inside the cluster) and an unrelated
  // worker count, so the partition boundaries sweep every block shape the
  // leaf-aligned assignment can produce. The engine's own invariants
  // (pdes.safe_time horizon monotonicity, pdes.straggler window containment)
  // throw InvariantViolation, which the harness records as a failure; the
  // driver additionally re-runs the case serially and diffs the timelines.
  if (rng.chance(0.5)) {
    p.cluster.pdes_partitions = 2 + rng.below(7);  // 2..8
    p.cluster.pdes_workers = 1 + rng.below(4);     // 1..4
  }
  draw_fabric_shape(rng, p.cluster, p.nodes);

  if (summary != nullptr) {
    *summary = fmt("case %llu: %s n=%zu dim=%zu reps=%d %s topo=%s skew=%lldps pdes=%zu/%u "
                   "faults[%zu loss, %zu burst, %zu corrupt, %zu down]",
                   static_cast<unsigned long long>(case_seed), label(family), p.nodes,
                   p.spec.gb_dimension, p.reps,
                   p.cluster.nic.model.c_str(), topology_summary(p.cluster).c_str(),
                   static_cast<long long>(p.max_start_skew.ps()), p.cluster.pdes_partitions,
                   p.cluster.pdes_workers, fp.loss.size(), fp.bursts.size(),
                   fp.corruption.size(), fp.link_down.size());
  }
  return p;
}

PropertyReport run_fuzz_case(std::uint64_t case_seed) {
  PropertyReport rep;
  run_one_fuzz(case_seed, rep, /*recheck_determinism=*/true);
  return rep;
}

PropertyReport run_property_suite(const PropertyOptions& opts) {
  PropertyReport rep;
  prop_latency_monotone_in_n(rep);
  prop_clock_scaling_direction(rep);
  prop_rank_permutation_invariance(rep, opts.seed);
  prop_parallel_sweep_bit_equality(rep);
  prop_spec_round_trip(rep, opts.seed);
  for (std::size_t i = 0; i < opts.cases; ++i) {
    run_one_fuzz(fuzz_case_seed(opts.seed, i), rep, /*recheck_determinism=*/i % 5 == 0);
  }
  return rep;
}

}  // namespace nicbar::sim::check
