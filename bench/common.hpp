// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench prints a self-contained table of *simulated* time. The paper's
// numbers came from real LANai 4.3/7.2 hardware; we reproduce the shape
// (ordering, approximate factors, crossovers) rather than exact values —
// see EXPERIMENTS.md for paper-vs-measured.
//
// Benches build declarative coll::SweepPlans and run them through the shared
// sweep engine. Two environment variables are honoured here — and only here,
// at the bench-binary edge; the library API is explicit options throughout:
//
//   NICBAR_JOBS=N            shard each sweep across N worker threads
//                            (0 = one per hardware thread; unset = serial)
//   NICBAR_METRICS_JSON=F    instrument every case and append its counters
//                            to F, one JSON document per line
//   NICBAR_BENCH_JSON_DIR=D  write the BENCH_<name>.json summary into D
//                            instead of the current directory
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "nic/config.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::bench {

/// Sweep options for every bench in this directory, from the environment.
inline coll::SweepOptions sweep_options() {
  coll::SweepOptions o;
  if (const char* jobs = std::getenv("NICBAR_JOBS"); jobs != nullptr && *jobs != '\0') {
    o.workers = static_cast<unsigned>(std::strtoul(jobs, nullptr, 10));
  }
  if (const char* path = std::getenv("NICBAR_METRICS_JSON"); path != nullptr && *path != '\0') {
    static coll::MetricsSink sink{std::string(path)};
    if (!sink.ok()) {
      std::fprintf(stderr, "warning: cannot append metrics to %s\n", path);
    }
    o.instrument = true;
    o.sink = &sink;
  }
  return o;
}

/// Runs a plan with the environment-derived options above.
inline coll::SweepResult run(const coll::SweepPlan& plan) { return plan.run(sweep_options()); }

/// The four paper variants at one node count (GB at its best dimension).
struct FourWay {
  double nic_pe, nic_gb, host_pe, host_gb;
};

/// Adds the four paper variants at `nodes` to `plan` (labels come from
/// coll::variant_label); read back with four_way() at the same grid index.
inline void add_four_way(coll::SweepPlan& plan, const nic::NicConfig& cfg, std::size_t nodes,
                         int reps = 500) {
  using coll::Location;
  using nic::BarrierAlgorithm;
  for (const Location loc : {Location::kNic, Location::kHost}) {
    coll::ExperimentParams pe = coll::experiment(cfg, nodes, reps);
    pe.spec = coll::spec(loc, BarrierAlgorithm::kPairwiseExchange);
    plan.add(coll::variant_label(pe), pe);
    coll::ExperimentParams gb = coll::experiment(cfg, nodes, reps);
    gb.spec = coll::spec(loc, BarrierAlgorithm::kGatherBroadcast);
    plan.add_gb_sweep(coll::variant_label(gb), gb);
  }
}

/// The i-th four-way group of a plan built with add_four_way.
inline FourWay four_way(const coll::SweepResult& r, std::size_t i) {
  return FourWay{r.cases[4 * i + 0].result.mean_us, r.cases[4 * i + 1].result.mean_us,
                 r.cases[4 * i + 2].result.mean_us, r.cases[4 * i + 3].result.mean_us};
}

/// Measures the four variants at every node count as ONE sweep, so a
/// parallel run (NICBAR_JOBS) spans the whole figure grid at once.
inline std::vector<FourWay> measure_grid(const nic::NicConfig& cfg,
                                         const std::vector<std::size_t>& node_counts,
                                         int reps = 500) {
  coll::SweepPlan plan;
  for (const std::size_t n : node_counts) add_four_way(plan, cfg, n, reps);
  const coll::SweepResult r = run(plan);
  std::vector<FourWay> rows;
  rows.reserve(node_counts.size());
  for (std::size_t i = 0; i < node_counts.size(); ++i) rows.push_back(four_way(r, i));
  return rows;
}

inline FourWay measure_all(const nic::NicConfig& cfg, std::size_t nodes, int reps = 500) {
  return measure_grid(cfg, {nodes}, reps).front();
}

/// Mean barrier latency (us) for one variant; GB runs at its best dimension
/// (the paper's methodology: sweep 1..N-1, take the minimum).
inline double measure(const nic::NicConfig& cfg, std::size_t nodes, coll::Location loc,
                      nic::BarrierAlgorithm alg, int reps = 500) {
  coll::ExperimentParams p = coll::experiment(cfg, nodes, reps);
  p.spec = coll::spec(loc, alg);
  coll::SweepPlan plan;
  if (alg == nic::BarrierAlgorithm::kGatherBroadcast) {
    plan.add_gb_sweep(coll::variant_label(p), p);
  } else {
    plan.add(coll::variant_label(p), p);
  }
  return run(plan).cases.front().result.mean_us;
}

/// `prefix` followed by the decimal `n` ("n16"), the key of a summary row.
/// Built by append: GCC 12 at -O3 misreports "literal" + std::to_string(n)
/// as an overlapping copy (-Wrestrict).
inline std::string row_key(const char* prefix, std::size_t n) {
  return std::string(prefix).append(std::to_string(n));
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Machine-readable companion to a bench's human table: one
/// `BENCH_<name>.json` document per binary (schema "nicbar-bench-v1"),
/// overwritten on every run so CI can diff trajectories and detect schema
/// drift. Rows mirror the printed table: one labelled grid point each, with
/// a flat map of numeric metrics. Written to $NICBAR_BENCH_JSON_DIR (when
/// set) or the current directory.
class BenchSummary {
 public:
  /// `schema` names the row contract check_bench_json.py validates against;
  /// benches whose rows carry a different metric set (e.g. the rma_barrier
  /// crossover study) pass their own identifier.
  explicit BenchSummary(std::string name, std::string schema = "nicbar-bench-v1")
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Appends one labelled row. Metric keys should be stable identifiers
  /// (snake_case, unit-suffixed: "mean_us", "p99_us", "improvement").
  void add(const std::string& label, std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back(Row{label, std::move(metrics)});
  }

  /// Writes BENCH_<name>.json. Returns false (after a stderr warning) when
  /// the file cannot be written; benches still exit 0 — the table on stdout
  /// remains the primary artifact.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("NICBAR_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    std::ofstream out(path);
    if (!out.is_open()) {
      std::fprintf(stderr, "warning: cannot write bench summary to %s\n", path.c_str());
      return false;
    }
    using sim::telemetry::json_escape;
    out << "{\n  \"schema\": \"" << json_escape(schema_) << "\",\n  \"bench\": \""
        << json_escape(name_) << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "    {\"label\": \"" << json_escape(r.label) << "\", \"metrics\": {";
      for (std::size_t m = 0; m < r.metrics.size(); ++m) {
        // Shortest decimal that parses back to the same double: lossless,
        // so a trajectory diff sees drift in any digit.
        char num[32];
        const auto end = std::to_chars(num, num + sizeof num, r.metrics[m].second).ptr;
        out << (m == 0 ? "" : ", ") << '"' << json_escape(r.metrics[m].first)
            << "\": " << std::string_view(num, static_cast<std::size_t>(end - num));
      }
      out << "}}" << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return true;
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string name_;
  std::string schema_;
  std::vector<Row> rows_;
};

}  // namespace nicbar::bench
