#include "coll/sweep.hpp"

#include <chrono>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "coll/family.hpp"
#include "sim/exec.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::coll {

namespace {

/// One expanded unit of work: a case at a concrete GB dimension (or the
/// case's own spec for non-swept cases).
struct Run {
  std::size_t case_idx;
  std::size_t dim;         // 0 = keep the case's spec untouched
  bool instrumented;       // attach telemetry and serialise its counters
};

struct RunOutput {
  ExperimentResult result;
  std::string metrics_json;  // empty unless instrumented
};

std::string serialise_metrics(const std::string& label,
                              const sim::telemetry::Telemetry& telemetry) {
  std::ostringstream os;
  os << "{\"bench\": \"" << sim::telemetry::json_escape(label) << "\", \"metrics\": ";
  telemetry.metrics().write_json(os);
  os << "}";
  return os.str();
}

RunOutput execute(const SweepCase& c, std::size_t dim, bool instrumented) {
  // Telemetry hooks are untaken branches on the simulated timeline, so an
  // instrumented run reports exactly the numbers an uninstrumented one would.
  std::optional<sim::telemetry::Telemetry> telemetry;
  if (instrumented) telemetry.emplace();
  sim::telemetry::Telemetry* t = telemetry ? &*telemetry : nullptr;
  RunOutput out;
  if (c.custom) {
    out.result = c.custom(t);
  } else {
    ExperimentParams p = c.params;
    if (dim != 0) p.spec.gb_dimension = dim;
    if (t != nullptr) p.cluster.telemetry = t;
    out.result = run_barrier_experiment(p);
  }
  if (t != nullptr) out.metrics_json = serialise_metrics(c.label, *t);
  return out;
}

std::size_t gb_max_dim(const ExperimentParams& p) {
  return p.nodes > 1 ? p.nodes - 1 : 1;
}

}  // namespace

// --- MetricsSink --------------------------------------------------------------

MetricsSink::MetricsSink(const std::string& path)
    : out_(path, std::ios::app), path_(path) {}

void MetricsSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_ << line << '\n' << std::flush;
}

// --- SweepResult --------------------------------------------------------------

const CaseResult& SweepResult::find(const std::string& label) const {
  for (const CaseResult& c : cases) {
    if (c.label == label) return c;
  }
  throw std::out_of_range("no sweep case labelled '" + label + "'");
}

double SweepResult::mean_us(const std::string& label) const {
  return find(label).result.mean_us;
}

// --- SweepPlan ----------------------------------------------------------------

SweepCase& SweepPlan::add(std::string label, ExperimentParams params) {
  cases_.push_back(SweepCase{std::move(label), std::move(params), false, {}});
  return cases_.back();
}

SweepCase& SweepPlan::add_gb_sweep(std::string label, ExperimentParams params) {
  cases_.push_back(SweepCase{std::move(label), std::move(params), true, {}});
  return cases_.back();
}

SweepCase& SweepPlan::add_custom(std::string label, CustomExperiment body) {
  if (!body) throw std::invalid_argument("add_custom requires a callable body");
  SweepCase c;
  c.label = std::move(label);
  c.custom = std::move(body);
  cases_.push_back(std::move(c));
  return cases_.back();
}

SweepResult SweepPlan::run(const SweepOptions& opts) const {
  if (opts.instrument && opts.sink == nullptr) {
    throw std::invalid_argument("SweepOptions::instrument requires a MetricsSink");
  }
  for (const SweepCase& c : cases_) {
    if (c.sweep_gb_dimension && c.custom) {
      throw std::invalid_argument("a custom case cannot be GB-swept ('" + c.label + "')");
    }
    if (c.sweep_gb_dimension &&
        family_row(family_of(c.params.spec)).dim != DimRule::kGbDimension) {
      throw std::invalid_argument("GB dimension sweep requires the GB algorithm ('" +
                                  c.label + "')");
    }
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Expand cases into independent runs. A swept case measures every
  // dimension uninstrumented (the winner is re-run instrumented afterwards,
  // once it is known); a plain case is measured — and, when requested,
  // instrumented — in a single run.
  std::vector<Run> runs;
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const SweepCase& c = cases_[i];
    if (c.sweep_gb_dimension) {
      for (std::size_t dim = 1; dim <= gb_max_dim(c.params); ++dim) {
        runs.push_back(Run{i, dim, false});
      }
    } else {
      runs.push_back(Run{i, 0, opts.instrument});
    }
  }

  // Shard: every run owns a private Simulator/Cluster and writes only its
  // own output slot, so results are bit-identical for any worker count.
  std::vector<RunOutput> outputs(runs.size());
  sim::exec::parallel_for(runs.size(), opts.workers, [&](std::size_t r) {
    outputs[r] = execute(cases_[runs[r].case_idx], runs[r].dim, runs[r].instrumented);
  });

  // Reduce in plan order: for swept cases keep the minimum-latency dimension
  // (first wins ties, matching the paper's 1..N-1 scan).
  SweepResult res;
  res.cases.resize(cases_.size());
  std::vector<std::string> metrics_lines(cases_.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    CaseResult& cr = res.cases[run.case_idx];
    const SweepCase& c = cases_[run.case_idx];
    cr.label = c.label;
    if (!c.sweep_gb_dimension) {
      cr.result = outputs[r].result;
      cr.gb_dimension = family_row(family_of(c.params.spec)).dim == DimRule::kGbDimension
                            ? c.params.spec.gb_dimension
                            : 0;
      metrics_lines[run.case_idx] = std::move(outputs[r].metrics_json);
    } else if (cr.gb_dimension == 0 || outputs[r].result.mean_us < cr.result.mean_us) {
      cr.result = outputs[r].result;
      cr.gb_dimension = run.dim;  // runs are expanded in ascending dim order
    }
  }

  // Instrument the winners of swept cases now that they are known — an
  // explicit re-run, where the old bench helper re-ran the winner only when
  // an env var happened to be set.
  if (opts.instrument) {
    std::vector<std::size_t> swept;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (cases_[i].sweep_gb_dimension) swept.push_back(i);
    }
    sim::exec::parallel_for(swept.size(), opts.workers, [&](std::size_t s) {
      const std::size_t i = swept[s];
      metrics_lines[i] = execute(cases_[i], res.cases[i].gb_dimension, true).metrics_json;
    });
    // Plan-order emission: the sink's lock makes each line atomic, the
    // ordered loop makes the whole file deterministic for any worker count.
    for (const std::string& line : metrics_lines) {
      if (!line.empty()) opts.sink->write_line(line);
    }
  }

  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0).count();
  return res;
}

// --- Declarative builders -----------------------------------------------------

ExperimentParams experiment(const nic::NicConfig& nic_cfg, std::size_t nodes, int reps) {
  ExperimentParams p;
  p.nodes = nodes;
  p.reps = reps;
  p.cluster.nic = nic_cfg;
  return p;
}

BarrierSpec spec(Location loc, nic::BarrierAlgorithm alg, std::size_t dim) {
  return family_spec({family_of({.location = loc, .algorithm = alg}), dim});
}

BarrierSpec rdma_spec(RdmaAlgorithm alg, std::size_t radix) {
  return family_spec(
      {alg == RdmaAlgorithm::kDissemination ? Family::kHostDissem : Family::kHostTree, radix});
}

BarrierSpec hier_spec(std::size_t intra_dim, std::size_t block) {
  return family_spec({Family::kHier, intra_dim}, {.hier_block = block});
}

std::string variant_label(const ExperimentParams& p) {
  return std::string(family_row(family_of(p.spec)).label) + "-n" + std::to_string(p.nodes) +
         "-" + p.cluster.nic.model;
}

}  // namespace nicbar::coll
