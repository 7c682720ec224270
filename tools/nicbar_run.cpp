// nicbar_run — command-line experiment driver.
//
// Runs barrier experiments on the simulated cluster and prints the mean
// latency plus NIC counters. Everything the figure benches do, but with the
// knobs on the command line, for interactive exploration:
//
//   nicbar_run --nodes 16 --location nic --algorithm pe
//   nicbar_run --nodes 8 --nic lanai72 --location host --algorithm gb --dim 3
//   nicbar_run --nodes 64 --topology fat-tree --radix 8 --reps 100 --skew-us 200
//   nicbar_run --nodes 8 --reliability separate --loss 0.02
//   nicbar_run --nodes 16 --breakdown --trace-json trace.json --metrics-json m.json
//   nicbar_run --nodes 16 --loss 0.01 --reliability shared --seeds 5 --jobs 5
//
// Option parsing lives in nicbar_cli.hpp so it can be unit-tested; sweeps
// (GB dimension, multi-seed) go through coll::SweepPlan and are sharded
// across --jobs worker threads with bit-identical results.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "check/oracle.hpp"
#include "check/property.hpp"
#include "coll/sweep.hpp"
#include "nicbar_cli.hpp"
#include "sim/causal.hpp"
#include "sim/fault.hpp"
#include "sim/telemetry.hpp"
#include "wl/driver.hpp"
#include "wl/slo.hpp"

namespace {

using namespace nicbar;

/// The run header's family name ("NIC-PE", "host-RDMA-tree").
std::string_view family_header(const coll::BarrierSpec& spec) {
  return coll::family_row(coll::family_of(spec)).header;
}

template <typename Writer>
bool write_file(const std::string& path, Writer&& writer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  writer(out);
  return true;
}

/// One report per seed as JSON: the object itself for one seed, else an array.
template <typename Report>
bool write_reports(const std::string& path, const std::vector<Report>& reports) {
  return write_file(path, [&](std::ostream& os) {
    if (reports.size() == 1) return reports.front().write_json(os);
    os << "[\n";
    for (std::size_t k = 0; k < reports.size(); ++k) {
      reports[k].write_json(os);
      if (k + 1 < reports.size()) os << ",\n";
    }
    os << "]\n";
  });
}

/// The fault plan the command line asks for: --fault-plan's file (or an
/// empty plan drawing from `seed`) plus --loss and --burst-loss on every
/// link. False, after a diagnostic, when the file cannot be read or parsed.
bool load_faults(const cli::Options& o, std::uint64_t seed, sim::fault::FaultPlan& faults) {
  if (!o.fault_plan_path.empty()) {
    std::ifstream in(o.fault_plan_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read fault plan %s\n", o.fault_plan_path.c_str());
      return false;
    }
    try {
      faults = sim::fault::parse_fault_plan(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", o.fault_plan_path.c_str(), e.what());
      return false;
    }
  } else {
    faults.seed = seed;
  }
  if (o.loss > 0.0) faults.loss.push_back({"", o.loss});
  if (o.given("--burst-loss")) {
    faults.bursts.push_back({"", o.burst_enter, o.burst_exit, 0.0, o.burst_rate});
  }
  return true;
}

/// Sweep options for --jobs, instrumented into `sink` when --metrics-json is
/// given. False, after a diagnostic, when the metrics file cannot be opened.
bool sweep_options(const cli::Options& o, coll::SweepOptions& opts,
                   std::unique_ptr<coll::MetricsSink>& sink) {
  opts.workers = o.jobs;
  if (o.metrics_path.empty()) return true;
  sink = std::make_unique<coll::MetricsSink>(o.metrics_path);
  if (!sink->ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", o.metrics_path.c_str());
    return false;
  }
  opts.instrument = true;
  opts.sink = sink.get();
  return true;
}

/// --seeds K: one SweepPlan case per seed, sharded across --jobs workers.
/// Prints a per-seed table plus the aggregate mean, so lossy configurations
/// can be characterised across RNG draws in one command.
int run_seed_sweep(const cli::Options& o) {
  coll::SweepPlan plan;
  for (std::size_t k = 0; k < o.seeds; ++k) {
    coll::ExperimentParams p = o.params;
    p.seed = o.params.seed + k;
    if (o.fault_plan_path.empty()) p.cluster.faults.seed = p.seed;
    if (o.sweep_dim) {
      plan.add_gb_sweep("seed" + std::to_string(p.seed), std::move(p));
    } else {
      plan.add("seed" + std::to_string(p.seed), std::move(p));
    }
  }

  coll::SweepOptions opts;
  std::unique_ptr<coll::MetricsSink> sink;
  if (!sweep_options(o, opts, sink)) return 1;
  coll::SweepResult r;
  try {
    r = plan.run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const std::string_view header = family_header(o.params.spec);
  std::printf("seed sweep: %zu seeds from %llu, nodes=%zu reps=%d %.*s nic=%s, jobs=%u\n",
              o.seeds, static_cast<unsigned long long>(o.params.seed), o.params.nodes,
              o.params.reps, static_cast<int>(header.size()), header.data(),
              o.params.cluster.nic.model.c_str(), o.jobs);
  std::printf("%8s %6s %12s %10s %10s %10s %9s\n", "seed", o.sweep_dim ? "dim" : "", "mean_us",
              "retrans", "drops", "timeouts", "failures");
  double sum_us = 0.0;
  std::size_t stalled = 0;
  for (std::size_t k = 0; k < r.cases.size(); ++k) {
    const coll::CaseResult& c = r.cases[k];
    char dim_buf[16] = "";
    if (o.sweep_dim) std::snprintf(dim_buf, sizeof dim_buf, "%zu", c.gb_dimension);
    if (c.result.stalled_members > 0) {
      std::printf("%8llu %6s %12s\n", static_cast<unsigned long long>(o.params.seed + k), dim_buf,
                  "STALLED");
      ++stalled;
      continue;
    }
    std::printf("%8llu %6s %12.2f %10llu %10llu %10llu %9llu\n",
                static_cast<unsigned long long>(o.params.seed + k), dim_buf, c.result.mean_us,
                static_cast<unsigned long long>(c.result.retransmissions),
                static_cast<unsigned long long>(c.result.link_packets_dropped),
                static_cast<unsigned long long>(c.result.retransmit_timeouts),
                static_cast<unsigned long long>(c.result.barrier_failures));
    sum_us += c.result.mean_us;
  }
  const std::size_t finished = r.cases.size() - stalled;
  if (finished > 0) {
    std::printf("mean over %zu seed%s   : %10.2f us\n", finished, finished == 1 ? "" : "s",
                sum_us / static_cast<double>(finished));
  }
  if (stalled > 0) {
    std::printf("stalled seeds        : %10zu (try --reliability shared|separate or "
                "--deadline-us)\n",
                stalled);
  }
  std::printf("wall clock           : %10.1f ms\n", r.wall_ms);
  if (sink) std::printf("metrics written to %s\n", o.metrics_path.c_str());
  return 0;
}

/// --critical-path: prints the exact critical path of the last completed
/// barrier plus the aggregated per-segment attribution, then asserts the two
/// structural invariants — the span graph is acyclic and the attribution
/// telescopes to the measured total to the picosecond. Non-zero exit on a
/// violation, so CI can gate on this output.
int print_critical_path(const sim::causal::CausalTracer& causal) {
  namespace cz = sim::causal;
  if (!causal.verify_acyclic()) {
    std::fprintf(stderr, "error: causal span graph violates the parent-id < span-id "
                         "invariant (cycle)\n");
    return 1;
  }
  if (causal.completed().empty()) {
    std::printf("\nno critical path: no NIC barrier completed (host-based barriers are "
                "ordinary\nmessage loops with no completion event to trace)\n");
    return 0;
  }
  const cz::CompletedBarrier& last = causal.completed().back();
  const cz::CriticalPath path = causal.critical_path(last.sink);
  std::printf("\ncritical path, last completed barrier (node %u port %u epoch %u; "
              "%zu spans, %.3f us):\n",
              last.node, last.port, last.epoch, path.steps.size(), path.total.us());
  std::printf("  %-4s %-10s %-16s %12s %12s\n", "node", "segment", "span", "self_us",
              "queue_us");
  for (const cz::PathStep& s : path.steps) {
    std::printf("  %-4u %-10s %-16s %12.4f %12.4f\n", s.node, cz::to_string(s.seg), s.label,
                s.self.us(), s.queue.us());
  }

  const cz::PathProfile prof = causal.profile();
  const double n = static_cast<double>(prof.barriers);
  std::printf("\ncritical-path attribution (mean over %llu completed barriers):\n",
              static_cast<unsigned long long>(prof.barriers));
  const double denom = prof.total.us();
  for (std::size_t s = 0; s < cz::kSegmentCount; ++s) {
    const double self_us = prof.self[s].us();
    const double queue_us = prof.queue[s].us();
    std::printf("  %-10s self %10.4f us  queue %10.4f us  (%5.1f%% of path)\n",
                cz::to_string(static_cast<cz::Segment>(s)), self_us / n, queue_us / n,
                denom > 0.0 ? 100.0 * (self_us + queue_us) / denom : 0.0);
  }
  std::printf("  %-10s      %10.4f us\n", "total", denom / n);

  if (path.attributed() != path.total || prof.attributed() != prof.total) {
    std::fprintf(stderr, "error: critical-path attribution does not telescope to the "
                         "measured total\n");
    return 1;
  }
  std::printf("causal DAG           : %zu spans, acyclic, fully attributed\n",
              causal.span_count());
  return 0;
}

void print_tail(const char* name, const wl::TailStats& t) {
  std::printf("%-14s count=%llu mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f us\n", name,
              static_cast<unsigned long long>(t.count), t.mean_us, t.p50_us, t.p95_us, t.p99_us,
              t.max_us);
}

void print_workload_report(const wl::Report& rep) {
  std::printf("%4s %-12s %6s %12s %12s %12s %12s %9s\n", "job", "class", "nodes", "arrival_us",
              "start_us", "end_us", "mean_us", "failures");
  for (const wl::JobReport& j : rep.jobs) {
    std::printf("%4zu %-12s %6zu %12.1f %12.1f %12.1f %12.2f %9llu\n", j.job, j.klass.c_str(),
                j.nodes, j.arrival_us, j.start_us, j.end_us, j.experiment_mean_us,
                static_cast<unsigned long long>(j.failures));
  }
  std::printf("\nper-collective latency:\n");
  for (std::size_t k = 0; k < wl::kCollectiveKindCount; ++k) {
    if (rep.per_kind[k].count == 0) continue;
    print_tail(wl::to_string(static_cast<wl::CollectiveKind>(k)), rep.per_kind[k]);
  }
  print_tail("overall", rep.overall);
  std::printf("\nmakespan             : %10.1f us\n", rep.makespan_us);
  std::printf("fabric               : link util mean %.3f / max %.3f, NIC occupancy mean %.3f "
              "/ max %.3f, PCI util mean %.3f\n",
              rep.mean_link_utilisation, rep.max_link_utilisation, rep.mean_nic_occupancy,
              rep.max_nic_occupancy, rep.mean_pci_utilisation);
  std::printf("counters             : %llu barriers, %llu reduces, %llu retransmissions, "
              "%llu link stalls, %llu drops\n",
              static_cast<unsigned long long>(rep.barriers_completed),
              static_cast<unsigned long long>(rep.reduces_completed),
              static_cast<unsigned long long>(rep.retransmissions),
              static_cast<unsigned long long>(rep.link_stalls),
              static_cast<unsigned long long>(rep.link_packets_dropped));
  if (rep.total_failures > 0) {
    std::printf("failures             : %10llu\n",
                static_cast<unsigned long long>(rep.total_failures));
  }
}

/// `nicbar_run workload SPEC`: the spec file provides cluster and jobs; the
/// command line provides seeds, fault injection, worker threads, and output
/// paths. With --seeds K every seed is one SweepPlan custom case, sharded
/// across --jobs workers with bit-identical reports.
int run_workload_cmd(const cli::Options& o) {
  std::ifstream in(o.workload_spec_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read workload spec %s\n", o.workload_spec_path.c_str());
    return 1;
  }
  wl::WorkloadSpec spec;
  try {
    spec = wl::parse_workload_spec(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", o.workload_spec_path.c_str(), e.what());
    return 1;
  }
  if (o.given("--seed")) spec.seed = o.params.seed;

  if (!load_faults(o, spec.seed, spec.cluster.faults)) return 1;

  // Every seed is one custom case; each run builds its own cluster, so the
  // sweep shards cleanly and a single seed is just a one-case plan.
  coll::SweepPlan plan;
  std::vector<wl::Report> reports(o.seeds);
  std::vector<wl::SloReport> slo_reports(o.seeds);
  const bool want_slo = !o.slo_report_path.empty();
  for (std::size_t k = 0; k < o.seeds; ++k) {
    wl::WorkloadSpec s = spec;
    s.seed = spec.seed + k;
    if (o.fault_plan_path.empty()) s.cluster.faults.seed = s.seed;
    wl::Report* out = &reports[k];
    wl::SloReport* slo_out = want_slo ? &slo_reports[k] : nullptr;
    plan.add_custom("workload-seed" + std::to_string(s.seed),
                    [s = std::move(s), out, slo_out](sim::telemetry::Telemetry* t) {
                      wl::WorkloadSpec run_spec = s;
                      run_spec.cluster.telemetry = t;
                      if (slo_out != nullptr) {
                        auto [rep, slo] = wl::Driver(run_spec).run_with_slo();
                        *out = std::move(rep);
                        *slo_out = std::move(slo);
                      } else {
                        *out = wl::run_workload(run_spec);
                      }
                      coll::ExperimentResult res;
                      res.nodes = run_spec.cluster_nodes;
                      res.mean_us = out->overall.mean_us;
                      res.total_us = out->makespan_us;
                      res.barrier_failures = out->total_failures;
                      return res;
                    });
  }

  coll::SweepOptions opts;
  std::unique_ptr<coll::MetricsSink> sink;
  if (!sweep_options(o, opts, sink)) return 1;

  coll::SweepResult sweep;
  try {
    sweep = plan.run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", o.workload_spec_path.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s: %zu job%s over %zu nodes, placement=%s, arrival=%s, seed=%llu%s\n",
              o.workload_spec_path.c_str(), spec.total_jobs(), spec.total_jobs() == 1 ? "" : "s",
              spec.cluster_nodes, wl::to_string(spec.placement),
              wl::to_string(spec.arrival.kind), static_cast<unsigned long long>(spec.seed),
              o.seeds > 1 ? (" (+" + std::to_string(o.seeds - 1) + " more)").c_str() : "");
  if (o.seeds == 1) {
    print_workload_report(reports.front());
  } else {
    std::printf("%8s %10s %10s %10s %10s %12s %9s\n", "seed", "p50_us", "p95_us", "p99_us",
                "mean_us", "makespan_us", "failures");
    for (std::size_t k = 0; k < o.seeds; ++k) {
      const wl::Report& r = reports[k];
      std::printf("%8llu %10.2f %10.2f %10.2f %10.2f %12.1f %9llu\n",
                  static_cast<unsigned long long>(spec.seed + k), r.overall.p50_us,
                  r.overall.p95_us, r.overall.p99_us, r.overall.mean_us, r.makespan_us,
                  static_cast<unsigned long long>(r.total_failures));
    }
  }
  std::printf("wall clock           : %10.1f ms\n", sweep.wall_ms);

  if (!o.report_path.empty()) {
    if (!write_reports(o.report_path, reports)) return 1;
    std::printf("report written to %s\n", o.report_path.c_str());
  }
  if (want_slo) {
    std::ostringstream ascii;
    for (std::size_t k = 0; k < o.seeds; ++k) {
      if (o.seeds > 1) {
        ascii << "seed " << spec.seed + k << ":\n";
      }
      slo_reports[k].write_ascii(ascii);
    }
    std::printf("\n%s", ascii.str().c_str());
    if (!write_reports(o.slo_report_path, slo_reports)) return 1;
    std::printf("SLO report written to %s\n", o.slo_report_path.c_str());
  }
  if (sink) std::printf("metrics written to %s\n", o.metrics_path.c_str());
  return 0;
}

/// `nicbar_run check`: the differential oracle plus the property/fuzz suite;
/// `--case-seed N` replays a single fuzz case instead (the reproduction
/// command printed with every fuzz failure).
int run_check_cmd(const cli::Options& o) {
  namespace chk = sim::check;
  if (o.mode == cli::Mode::kReplay) {
    const chk::PropertyReport rep = chk::run_fuzz_case(o.case_seed);
    std::string summary;
    (void)chk::generate_fuzz_case(o.case_seed, &summary);
    std::printf("fuzz %s: %s\n", summary.c_str(), rep.ok() ? "ok" : "FAILED");
    for (const auto& f : rep.failures) {
      std::printf("  [%s] %s\n", f.property.c_str(), f.detail.c_str());
    }
    return rep.ok() ? 0 : 1;
  }

  const chk::OracleReport oracle = chk::run_differential_oracle();
  std::printf("differential oracle  : %zu cases (%zu exact), max rel error %.3f over the "
              "tolerance cases\n",
              oracle.checked, oracle.exact_cases, oracle.max_rel_error);
  for (const auto& c : oracle.outcomes) {
    if (c.pass) continue;
    std::printf("  FAIL %-26s predicted=%lld ps simulated=%lld ps (%s, rel error %.3f)\n",
                c.label.c_str(), static_cast<long long>(c.predicted.ps()),
                static_cast<long long>(c.simulated.ps()),
                c.exact ? "must match exactly" : "tolerance exceeded", c.rel_error);
  }

  const chk::PropertyReport props =
      chk::run_property_suite({.seed = o.params.seed, .cases = o.check_cases});
  std::printf("property suite       : %zu metamorphic properties, %zu fuzz cases (seed %llu)\n",
              props.properties_run, props.fuzz_cases_run,
              static_cast<unsigned long long>(o.params.seed));
  for (const auto& f : props.failures) {
    std::printf("  FAIL [%s] %s\n", f.property.c_str(), f.detail.c_str());
    if (f.case_seed != 0) {
      std::printf("       reproduce with: nicbar_run check --case-seed %llu\n",
                  static_cast<unsigned long long>(f.case_seed));
    }
  }

  const bool ok = oracle.ok() && props.ok();
  std::printf("check                : %s\n", ok ? "all green" : "FAILURES (see above)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::optional<cli::Options> parsed = cli::parse(argc, argv, error);
  if (!parsed) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    std::printf("usage: %s [workload SPEC | check] [options]\n%s", argv[0],
                cli::usage_text().c_str());
    return 2;
  }
  cli::Options& o = *parsed;
  if (o.mode == cli::Mode::kCheck || o.mode == cli::Mode::kReplay) return run_check_cmd(o);
  if (o.mode == cli::Mode::kWorkload) return run_workload_cmd(o);
  coll::ExperimentParams& p = o.params;

  if (!load_faults(o, p.seed, p.cluster.faults)) return 1;

  if (o.mode == cli::Mode::kSeeds) return run_seed_sweep(o);

  double mean_us = 0.0;
  if (o.sweep_dim) {
    const auto [best, us] = coll::best_gb_dimension(p, o.jobs);
    std::printf("best GB dimension: %zu\n", best);
    mean_us = us;
    p.spec.gb_dimension = best;
  }

  // Telemetry is attached only to the final (reported) run, after any
  // dimension sweep, so the artifacts describe exactly one experiment.
  sim::telemetry::Telemetry telemetry;
  const bool want_telemetry =
      o.breakdown || !o.metrics_path.empty() || !o.trace_path.empty() || o.critical_path;
  if (want_telemetry) {
    // --breakdown, --trace-json and --critical-path are views of one record.
    if (o.breakdown || !o.trace_path.empty() || o.critical_path) telemetry.enable_causal();
    p.cluster.telemetry = &telemetry;
  }

  coll::ExperimentResult r;
  try {
    r = coll::run_barrier_experiment(p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (mean_us == 0.0) mean_us = r.mean_us;

  const std::string_view header = family_header(p.spec);
  std::printf("nodes=%zu reps=%d %.*s dim=%zu nic=%s @%.0fMHz\n", p.nodes, p.reps,
              static_cast<int>(header.size()), header.data(), p.spec.gb_dimension,
              p.cluster.nic.model.c_str(), p.cluster.nic.clock_mhz);
  if (r.stalled_members > 0) {
    // An unreliable barrier on a lossy fabric hangs when a barrier packet is
    // dropped (the paper's measured config assumes a lossless fabric) — the
    // mean would be meaningless, so say what actually happened.
    std::printf("mean barrier latency :    STALLED (%llu member%s never finished; try "
                "--reliability shared|separate or --deadline-us)\n",
                static_cast<unsigned long long>(r.stalled_members),
                r.stalled_members == 1 ? "" : "s");
  } else {
    std::printf("mean barrier latency : %10.2f us\n", mean_us);
  }
  std::printf("barriers completed   : %10llu\n",
              static_cast<unsigned long long>(r.barriers_completed));
  std::printf("barrier packets sent : %10llu\n",
              static_cast<unsigned long long>(r.barrier_packets_sent));
  std::printf("unexpected recorded  : %10llu (bit collisions: %llu)\n",
              static_cast<unsigned long long>(r.unexpected_recorded),
              static_cast<unsigned long long>(r.bit_collisions));
  std::printf("retransmissions      : %10llu\n",
              static_cast<unsigned long long>(r.retransmissions));
  if (!p.cluster.faults.empty()) {
    std::printf("fault injection      : %10llu link drops, %llu crc drops\n",
                static_cast<unsigned long long>(r.link_packets_dropped),
                static_cast<unsigned long long>(r.crc_drops));
    std::printf("recovery             : %10llu timeouts, %llu backoffs, %llu rtt samples\n",
                static_cast<unsigned long long>(r.retransmit_timeouts),
                static_cast<unsigned long long>(r.rto_backoffs),
                static_cast<unsigned long long>(r.rtt_samples));
    std::printf("failures             : %10llu aborted members, %llu dead connections, "
                "%llu crashes (%llu restarts)\n",
                static_cast<unsigned long long>(r.barrier_failures),
                static_cast<unsigned long long>(r.connections_failed),
                static_cast<unsigned long long>(r.nic_crashes),
                static_cast<unsigned long long>(r.nic_restarts));
  }

  if (o.predict) std::printf("%s", cli::prediction(p, mean_us).c_str());

  if (o.breakdown) {
    const sim::causal::Breakdown b = telemetry.causal()->breakdown();
    if (b.barriers == 0) {
      std::printf(
          "\nno cost breakdown: --breakdown groups the critical path of each NIC barrier "
          "completion;\nhost-based barriers are ordinary message loops with no completion "
          "to trace.\n");
    } else {
      const double n = static_cast<double>(b.barriers);
      std::printf("\ncost breakdown (mean over %llu member-barriers, Eq. 1-2 terms):\n",
                  static_cast<unsigned long long>(b.barriers));
      std::printf("  host software      : %10.3f us\n", b.host.us() / n);
      std::printf("  NIC processing     : %10.3f us\n", b.nic.us() / n);
      std::printf("  DMA (PCI)          : %10.3f us\n", b.dma.us() / n);
      std::printf("  wire (network)     : %10.3f us\n", b.wire.us() / n);
      std::printf("  queue (contention) : %10.3f us\n", b.queue.us() / n);
      std::printf("  total              : %10.3f us\n", b.total.us() / n);
    }
  }
  int rc = 0;
  if (o.critical_path) rc = print_critical_path(*telemetry.causal());
  if (!o.metrics_path.empty()) {
    if (!write_file(o.metrics_path,
                    [&](std::ostream& os) { telemetry.metrics().write_json(os); })) {
      return 1;
    }
    std::printf("metrics written to %s\n", o.metrics_path.c_str());
  }
  if (!o.trace_path.empty()) {
    sim::telemetry::TraceEventSink sink;
    sink.set_mask(o.trace_mask);
    sim::telemetry::trace_spans(*telemetry.causal(), sink);
    if (!write_file(o.trace_path, [&](std::ostream& os) { sink.write_json(os); })) return 1;
    std::printf("trace written to %s (open in https://ui.perfetto.dev)\n", o.trace_path.c_str());
  }
  return rc;
}
