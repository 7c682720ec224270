// The unified experiment API: declarative sweeps over independent runs.
//
// Every figure bench, the GB-dimension search, the topology/scalability
// sweeps, and the CLI driver used to hand-roll the same serial loop around
// run_barrier_experiment, each with its own env-var sniffing for metrics
// output. SweepPlan replaces those loops with one entry point:
//
//   SweepPlan plan;
//   plan.add("nic-pe-n16", experiment(nic::lanai43(), 16)
//                              .with_spec(spec(Location::kNic, ...)));
//   plan.add_gb_sweep("nic-gb-n16", ...);    // dims 1..N-1, keep the minimum
//   SweepResult r = plan.run({.workers = 8});
//
// run() expands the plan into independent (config, dimension) runs, shards
// them across a sim::exec worker pool — one private Simulator/Cluster per
// run, so every run is exactly the deterministic simulation it would be
// serially — and reduces per case. Results are bit-identical for any worker
// count; only wall-clock changes. Instrumentation is an explicit option
// (SweepOptions::instrument + a mutex-guarded MetricsSink), not an env var:
// library code never reads the environment.
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "coll/family.hpp"
#include "coll/runner.hpp"

namespace nicbar::sim::telemetry {
class Telemetry;
}  // namespace nicbar::sim::telemetry

namespace nicbar::coll {

/// Thread-safe metrics sink: a stream of concatenated JSON documents. Each
/// write_line() appends one complete document (plus a trailing newline)
/// under a mutex, so concurrent writers (parallel instrumented runs, or
/// several plans sharing one sink) can never interleave partial documents.
class MetricsSink {
 public:
  /// Opens `path` for appending (the historical bench behaviour: successive
  /// runs accumulate documents).
  explicit MetricsSink(const std::string& path);

  /// False if the file could not be opened; write_line() is then a no-op.
  [[nodiscard]] bool ok() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Appends one document plus a newline, atomically w.r.t. other writers.
  void write_line(const std::string& line);

 private:
  std::mutex mu_;
  std::ofstream out_;
  std::string path_;
};

/// A user-supplied experiment body for cases the ExperimentParams vocabulary
/// cannot express (multi-job workloads, mixed-collective runs, ...). Called
/// once per run on a worker thread; must build its own private
/// Simulator/Cluster so runs stay independent. When the plan is instrumented
/// `telemetry` points at a per-run bundle whose counters the engine
/// serialises after the call; otherwise it is null. The body must be
/// deterministic and self-contained — it is the bit-reproducibility contract
/// of run(), extended to arbitrary experiments.
using CustomExperiment = std::function<ExperimentResult(sim::telemetry::Telemetry* telemetry)>;

/// One experiment in a plan. `sweep_gb_dimension` applies the paper's §6
/// methodology: run every GB tree dimension from 1 to N-1 and keep the
/// minimum (requires the GB algorithm). When `custom` is set, `params` is
/// ignored and the body runs instead (custom cases cannot be GB-swept).
struct SweepCase {
  std::string label;
  ExperimentParams params;
  bool sweep_gb_dimension = false;
  CustomExperiment custom;
};

struct SweepOptions {
  /// Worker threads to shard runs across: 1 = serial (the reference
  /// timeline), 0 = one per hardware thread.
  unsigned workers = 1;
  /// Attach a telemetry registry to each case's final configuration and
  /// append its counters to `sink` as one JSON line per case, in plan order
  /// regardless of worker count. Telemetry never perturbs the simulated
  /// timeline, so instrumented results stay bit-identical.
  bool instrument = false;
  MetricsSink* sink = nullptr;  // required when instrument is true
};

struct CaseResult {
  std::string label;
  ExperimentResult result;
  /// The GB dimension actually run: the winner for swept cases, the
  /// requested spec.gb_dimension otherwise (0 for non-GB algorithms).
  std::size_t gb_dimension = 0;
};

struct SweepResult {
  std::vector<CaseResult> cases;  // plan order
  double wall_ms = 0.0;           // real (not simulated) time of run()

  /// Mean latency of the case with `label`; throws std::out_of_range if no
  /// such case exists.
  [[nodiscard]] double mean_us(const std::string& label) const;
  [[nodiscard]] const CaseResult& find(const std::string& label) const;
};

class SweepPlan {
 public:
  /// Adds a plain single-run case. Returns it for further tweaking.
  SweepCase& add(std::string label, ExperimentParams params);

  /// Adds a GB best-dimension case (dims 1..N-1, minimum kept).
  SweepCase& add_gb_sweep(std::string label, ExperimentParams params);

  /// Adds a case whose body is arbitrary user code (see CustomExperiment).
  /// Shares the scheduling, instrumentation, and reduction machinery with
  /// declarative cases, so benches with bespoke experiments still get
  /// parallel sharding and deterministic metrics emission for free.
  SweepCase& add_custom(std::string label, CustomExperiment body);

  [[nodiscard]] std::size_t size() const { return cases_.size(); }
  [[nodiscard]] bool empty() const { return cases_.empty(); }
  [[nodiscard]] const std::vector<SweepCase>& cases() const { return cases_; }

  /// Executes every case, sharding the expanded runs across
  /// opts.workers threads. Throws std::invalid_argument for a malformed plan
  /// (GB sweep on a non-GB spec, instrument without a sink).
  [[nodiscard]] SweepResult run(const SweepOptions& opts = {}) const;

 private:
  std::vector<SweepCase> cases_;
};

// --- Declarative builders ----------------------------------------------------
// Replacements for the old bench/common.hpp base_params/make_spec helpers,
// available to every client of the library (benches, tools, tests).

[[nodiscard]] ExperimentParams experiment(const nic::NicConfig& nic_cfg, std::size_t nodes,
                                          int reps = 500);
[[nodiscard]] BarrierSpec spec(Location loc, nic::BarrierAlgorithm alg, std::size_t dim = 2);

/// Spec for a host-RDMA family (`alg` must not be kNone); `radix` is the
/// tree radix for kTreePut, ignored for kDissemination.
[[nodiscard]] BarrierSpec rdma_spec(RdmaAlgorithm alg, std::size_t radix = 2);

/// Spec for the hierarchical NIC family. `intra_dim` shapes the intra-block
/// GB trees; `block` = 0 lets the runner derive the block size from the
/// cluster's fabric (hosts per leaf switch).
[[nodiscard]] BarrierSpec hier_spec(std::size_t intra_dim = 2, std::size_t block = 0);

/// Canonical case label: "<FamilyRow::label>-n<N>-<model>", e.g.
/// "nic-pe-n16-LANai-4.3" (the naming the metrics JSON has always used).
[[nodiscard]] std::string variant_label(const ExperimentParams& p);

}  // namespace nicbar::coll
