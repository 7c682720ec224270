// Declarative multi-tenant workload specifications.
//
// A WorkloadSpec describes a population of jobs sharing one simulated
// fabric: how many jobs, how wide each one is, where its processes land
// (disjoint packs, strided, or deliberately overlapping node sets), what mix
// of collectives it issues (barrier / broadcast / allreduce / fuzzy
// barrier), how much skewed compute separates consecutive collectives, and
// when jobs arrive (all at once, on a fixed cadence, as a Poisson process,
// or closed-loop behind a fixed number of in-flight slots).
//
// The spec is a pure description — wl::Driver turns it into communicators
// over one host::Cluster and runs everything inside a single simulator, so
// contention between jobs (NIC processors, PCI buses, switch output ports)
// is actually modelled. Every stochastic choice draws from an RNG substream
// derived from (seed, purpose, job), so a spec plus a seed is a complete,
// bit-reproducible experiment — the same discipline as sim::fault::FaultPlan.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "coll/family.hpp"
#include "host/cluster.hpp"

namespace nicbar::wl {

/// How job node-sets are laid out over the cluster.
enum class Placement : std::uint8_t {
  kDisjoint,     // consecutive packs; throws if the jobs do not fit
  kStrided,      // round-robin interleave across nodes; throws if unfit
  kOverlapping,  // sliding windows advancing half a window per job, so
                 // consecutive jobs share ~half their nodes (co-located
                 // jobs get distinct GM ports on the shared NICs)
};

/// When job instances start.
enum class ArrivalKind : std::uint8_t {
  kFixed,       // job j arrives at j * interval (0 = all at t=0)
  kPoisson,     // exponential inter-arrival gaps with mean `interval`
  kClosedLoop,  // at most `width` jobs in flight; the next one starts
                // `think` after a predecessor finishes
};

enum class CollectiveKind : std::uint8_t { kBarrier, kBroadcast, kAllreduce, kFuzzyBarrier };
inline constexpr std::size_t kCollectiveKindCount = 4;

/// Name tables (sim/names.hpp) of the `placement` and `arrival` keys,
/// indexed by the enums.
struct PlacementName {
  Placement placement;
  std::string_view name;
};
inline constexpr PlacementName kPlacementNames[] = {{Placement::kDisjoint, "disjoint"},
                                                    {Placement::kStrided, "strided"},
                                                    {Placement::kOverlapping, "overlapping"}};
struct ArrivalName {
  ArrivalKind kind;
  std::string_view name;
};
inline constexpr ArrivalName kArrivalNames[] = {{ArrivalKind::kFixed, "fixed"},
                                                {ArrivalKind::kPoisson, "poisson"},
                                                {ArrivalKind::kClosedLoop, "closed-loop"}};

[[nodiscard]] const char* to_string(Placement p);
[[nodiscard]] const char* to_string(ArrivalKind k);
[[nodiscard]] const char* to_string(CollectiveKind k);

/// Relative weights of the collectives a job issues. A barrier-only mix
/// (broadcast == allreduce == 0) runs on bare coll::BarrierMembers — the
/// exact code path of the Fig. 5 experiments; any mix touching reductions
/// runs through an mpi::Communicator so one event stream serves them all.
struct CollectiveMix {
  double barrier = 1.0;
  double broadcast = 0.0;
  double allreduce = 0.0;
  double fuzzy = 0.0;

  [[nodiscard]] double total() const { return barrier + broadcast + allreduce + fuzzy; }
  [[nodiscard]] bool barrier_only() const { return broadcast == 0.0 && allreduce == 0.0; }
  /// More than one kind has weight (a per-iteration draw is needed).
  [[nodiscard]] bool mixed() const;
};

/// One class of identical jobs; `count` instances are created.
struct JobClass {
  std::string name = "job";
  std::size_t count = 1;
  std::size_t nodes = 8;  // processes (one per node of the job's node-set)
  int iterations = 100;   // collectives each instance issues
  CollectiveMix mix;
  /// Mean compute phase inserted before every collective; each process
  /// draws its own duration uniformly in mean * [1-imbalance, 1+imbalance],
  /// so imbalance > 0 makes some processes arrive late (stragglers).
  sim::Duration compute_mean{0};
  double compute_imbalance = 0.0;  // in [0, 1)
  /// Random per-process delay before an instance's first collective
  /// (arrival jitter within the job; 0 = all processes start together).
  sim::Duration start_skew{0};
  sim::Duration fuzzy_chunk = sim::microseconds(5.0);
  /// The barrier family and its parameter (`location` + `algorithm` keys;
  /// see coll/family.hpp). Reductions, fuzzy barriers and the managed
  /// lifecycle each need a family with that capability. hier blocks by the
  /// cluster fabric's leaf population at run time (one block on a flat
  /// topology); a class with reductions runs its reduce trees at `dim`.
  coll::FamilyChoice barrier;
  sim::Duration deadline{0};  // per-collective abort deadline (0 = none)
  /// Per-call software-layer overhead (only the communicator path pays it;
  /// a barrier-only class models raw GM and must leave this at 0).
  sim::Duration layer_overhead{0};
  /// Per-collective latency SLO for this class (0 = no SLO declared). A
  /// collective completing in more than `slo` burns error budget; wl::slo
  /// turns the samples into windowed burn rates.
  sim::Duration slo{0};
  /// Compliance target in (0, 1): the fraction of samples that must meet
  /// the SLO. The error budget is 1 - slo_target.
  double slo_target = 0.99;
  /// Burn-rate window width; 0 = a single window spanning the whole run.
  sim::Duration slo_window{0};
  /// Managed barrier-group lifecycle: each instance creates a group
  /// (coll::GroupMember — NIC slot admission with host fallback), runs its
  /// iterations through it, and destroys it, so a stream of short instances
  /// churns the NIC slot tables. Requires a pure-barrier mix and the NIC
  /// location; under slot exhaustion barriers complete degraded
  /// (kOkDegraded), which the report counts rather than treating as failure.
  bool managed = false;
  /// Managed only: retry NIC-slot admission after every this many degraded
  /// barriers (0 = never re-promote). See coll::GroupConfig::promote_every.
  int promote_every = 4;
};

struct Arrival {
  ArrivalKind kind = ArrivalKind::kFixed;
  sim::Duration interval{0};  // fixed gap, or Poisson mean gap
  std::size_t width = 1;      // closed-loop: concurrent job slots
  sim::Duration think{0};     // closed-loop: completion -> next arrival
};

struct WorkloadSpec {
  std::size_t cluster_nodes = 16;
  Placement placement = Placement::kDisjoint;
  Arrival arrival;
  std::vector<JobClass> classes;
  std::uint64_t seed = 1;
  /// Range of the per-collective latency histograms backing the percentile
  /// estimates (samples above the ceiling clamp into the last bin).
  double hist_max_us = 20000.0;
  std::size_t hist_bins = 2000;
  /// Fabric and NIC hardware (cluster.nodes is overridden by cluster_nodes;
  /// cluster.nic.max_ports is raised automatically when overlapping jobs
  /// need more GM ports per NIC than the default eight).
  host::ClusterParams cluster;

  [[nodiscard]] std::size_t total_jobs() const;
};

/// Throws std::invalid_argument naming the offending field on a malformed
/// spec (no classes, zero-node job, fuzzy weight on a host-based class,
/// layer overhead on a barrier-only class, imbalance outside [0,1), ...).
void validate(const WorkloadSpec& spec);

/// Expands the placement policy into one node-set per job instance, in job
/// order (class order, then instance order). Throws std::invalid_argument
/// when a disjoint or strided layout does not fit the cluster.
[[nodiscard]] std::vector<std::vector<net::NodeId>> place_jobs(const WorkloadSpec& spec);

/// Parses the line-oriented workload-spec format used by `nicbar_run
/// workload`. Durations are microseconds, weights are non-negative reals.
/// Blank lines and `#` comments are ignored.
///
///   cluster-nodes 32
///   nic lanai43                  # lanai43 | lanai72
///   topology switch              # switch | fat-tree <radix> <oversub>
///                                # | leaf-spine <radix> <oversub>
///   placement overlapping        # disjoint | strided | overlapping
///   reliability shared           # unreliable | shared | separate
///                                # (retransmission mode; required with fault
///                                # injection when any class uses fuzzy=)
///   nic-slots 8                  # barrier-state slots per NIC (admission
///                                # capacity for managed groups; follows `nic`)
///   arrival poisson 500          # fixed <gap_us> | poisson <mean_gap_us>
///                                # | closed-loop <width> <think_us>
///   seed 7
///   hist-max-us 20000
///
///   job stencil                  # starts a job class; keys below apply to it
///     count 4
///     nodes 8
///     iters 200
///     mix barrier=0.7 allreduce=0.2 bcast=0.1 fuzzy=0
///     compute-us 50
///     imbalance 0.3
///     skew-us 10
///     location nic               # nic | host
///     algorithm pe               # pe | gb <dim> | hier <dim> | host-dissem
///                                # | host-tree <radix> (host-* = rma::)
///     fuzzy-chunk-us 5
///     deadline-us 0
///     layer-us 0
///     slo-us 150                   # per-collective latency SLO (0 = none)
///     slo-target 0.99              # compliance target in (0, 1)
///     slo-window-us 5000           # burn-rate window (0 = whole run)
///     lifecycle managed            # none | managed (dynamic group
///                                  # create/destroy with slot admission)
///     promote-every 4              # managed: degraded barriers between
///                                  # re-promotion attempts (0 = never)
///
/// Throws std::runtime_error naming the offending line on malformed input;
/// the result has already passed validate().
[[nodiscard]] WorkloadSpec parse_workload_spec(std::istream& in);
[[nodiscard]] WorkloadSpec parse_workload_spec(const std::string& text);

/// Prints `spec` back in the line format parse_workload_spec accepts, so
/// that parse(print(parse(text))) == parse(text) structurally (the
/// round-trip property exercised by sim::check and tests/wl). Every field
/// the format carries is emitted explicitly, defaults included. Durations
/// are printed as microseconds with picosecond precision; integer-µs values
/// (the whole example corpus) round-trip exactly.
void print_spec(const WorkloadSpec& spec, std::ostream& os);
[[nodiscard]] std::string print_spec(const WorkloadSpec& spec);

/// Structural equality over every field the spec line format carries (the
/// fields print_spec emits); ignores fields the format cannot express.
[[nodiscard]] bool spec_equal(const WorkloadSpec& a, const WorkloadSpec& b);

}  // namespace nicbar::wl
