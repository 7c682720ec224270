// Command-line parsing and the --predict text for nicbar_run, separated from
// main() so both are unit-testable (tests/tools/cli_test.cpp). parse() never
// exits or prints: a bad command line comes back as std::nullopt plus a
// message, and main() decides what to do with it.
#pragma once

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "coll/family.hpp"
#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "model/timing.hpp"
#include "sim/names.hpp"
#include "sim/trace.hpp"

namespace nicbar::cli {

struct Options {
  coll::ExperimentParams params;
  bool sweep_dim = false;  // --dim 0 on a GB family: sweep 1..N-1 for the best
  bool predict = false;
  bool breakdown = false;
  std::string metrics_path;
  std::string trace_path;
  /// --trace-mask LIST: restrict --trace-json output to the named
  /// sim::TraceCategory values (parsed eagerly so typos fail at the command
  /// line, not after the run). Defaults to everything.
  std::uint32_t trace_mask = static_cast<std::uint32_t>(sim::TraceCategory::kAll);
  bool have_trace_mask = false;
  /// --critical-path: enable causal tracing for a single run and print the
  /// exact critical path of the last completed barrier plus the per-segment
  /// attribution profile; non-zero exit if the span DAG is cyclic or the
  /// attribution does not telescope to the measured total.
  bool critical_path = false;
  /// --slo-report F: workload mode; run with SLO burn-rate accounting and
  /// write the wl::SloReport JSON to F (the ASCII table goes to stdout).
  std::string slo_report_path;
  std::string fault_plan_path;
  double loss = 0.0;
  double burst_enter = 0.0, burst_exit = 0.0, burst_rate = 0.0;
  bool have_burst = false;
  /// Worker threads for sweeps (--jobs): 1 = serial, 0 = one per hardware
  /// thread. Applies to the GB dimension sweep, the seed sweep, and the
  /// workload seed sweep; results are bit-identical for any value.
  unsigned jobs = 1;
  /// Number of consecutive seeds to run (--seeds), starting at --seed.
  std::size_t seeds = 1;
  /// --pdes-workers was given (the value lives in params.cluster): run the
  /// experiment on the partitioned engine. Needed to distinguish an explicit
  /// `--pdes-workers 1` (serial engine, no partitioning) from the default.
  bool pdes_given = false;

  /// `nicbar_run workload SPEC` — run a wl:: multi-tenant workload instead
  /// of a single barrier experiment. The spec file provides the cluster and
  /// job population; the command line contributes fault injection
  /// (--fault-plan/--loss/--burst-loss), seeds (--seed/--seeds), worker
  /// threads (--jobs), and output paths.
  bool workload = false;
  std::string workload_spec_path;
  /// --report-json F: write the wl::Report (or, with --seeds K, an array of
  /// per-seed reports) as JSON to F. Workload mode only.
  std::string report_path;
  /// --seed was given explicitly (workload mode: override the spec's seed).
  bool seed_given = false;

  /// `nicbar_run check` — run the sim::check validation pass: the
  /// differential oracle sweep plus the property/fuzz suite. --cases sets
  /// the number of random fuzz cases; --case-seed N replays exactly one
  /// fuzz case (the reproduction command printed with every fuzz failure).
  bool check = false;
  std::size_t check_cases = 50;
  std::uint64_t case_seed = 0;
  bool have_case_seed = false;
};

/// The usage text; the --algorithm values come from the family table.
inline const std::string& usage_text() {
  static const std::string text =
      "  workload SPEC      run a multi-tenant workload from a spec file (see\n"
      "                     src/wl/spec.hpp for the grammar); composes with\n"
      "                     --seed/--seeds/--jobs/--fault-plan/--loss/--burst-loss,\n"
      "                     --metrics-json, and --report-json\n"
      "  --report-json F    workload mode: write the wl::Report as JSON to F\n"
      "  check              run the validation pass: differential oracle (closed\n"
      "                     forms vs simulator) + metamorphic property suite +\n"
      "                     random fuzz cases; non-zero exit on any failure\n"
      "  --cases N          check mode: number of random fuzz cases (default 50)\n"
      "  --case-seed S      check mode: replay a single fuzz case by its seed\n"
      "                     (printed with every fuzz failure)\n"
      "  --nodes N          group size (default 8)\n"
      "  --reps R           consecutive barriers to average (default 500)\n"
      "  --location L       nic | host (default nic)\n"
      "  --algorithm A      " + sim::join(sim::distinct_names(coll::kFamilies), " | ", " | ") +
      "\n"
      "                     (default pe; hier runs the two-level NIC family — best\n"
      "                     on a fat-tree/leaf-spine fabric; host-* run on the\n"
      "                     rma:: one-sided layer and ignore --location)\n"
      "  --dim D            GB tree dimension / host-tree radix / hier intra-block\n"
      "                     dimension (default 2; 0 = sweep for best, GB only)\n"
      "  --nic MODEL        lanai43 | lanai72 (default lanai43)\n"
      "  --clock MHZ        override NIC clock\n"
      "  --topology T       switch | fat-tree | leaf-spine (default switch; a\n"
      "                     radix-K switch tree is fat-tree --radix K\n"
      "                     --oversub K-1)\n"
      "  --radix R          fat-tree/leaf-spine switch radix (default 16)\n"
      "  --oversub Q        fat-tree/leaf-spine oversubscription ratio Q:1\n"
      "                     (default 1 = non-blocking)\n"
      "  --reliability M    unreliable | shared | separate (default unreliable)\n"
      "  --loss P           i.i.d. drop probability on every link (default 0)\n"
      "  --burst-loss E,X,L Gilbert-Elliott loss on every link: P(enter bad),\n"
      "                     P(exit bad), loss rate while bad\n"
      "  --fault-plan F     load a declarative fault plan (see sim/fault.hpp)\n"
      "  --rto M            adaptive | fixed retransmission timeout (default adaptive)\n"
      "  --deadline-us D    per-barrier abort deadline in us (default 0 = none)\n"
      "  --skew-us S        max random start skew in us (default 0)\n"
      "  --layer-us L       per-call software layer overhead in us (default 0)\n"
      "  --seed S           RNG seed (default 1)\n"
      "  --seeds K          run K consecutive seeds as one sweep (default 1)\n"
      "  --jobs N           worker threads for sweeps (default 1; 0 = all cores)\n"
      "  --pdes-workers N   run the single experiment on the conservative PDES\n"
      "                     engine: N leaf-aligned partitions on N worker threads\n"
      "                     (default 1 = serial). The timeline, counters, and\n"
      "                     causal record are bit-identical for every N; only\n"
      "                     wall-clock time changes. Not available with\n"
      "                     --breakdown/--trace-json (those collectors are\n"
      "                     single-lane) or the workload/check subcommands\n"
      "  --predict          also print the family's Eq. 1-2 closed form, by term\n"
      "  --breakdown        print the per-barrier Eq. 1-2 cost breakdown\n"
      "  --metrics-json F   write hardware counters/gauges as JSON to F\n"
      "  --trace-json F     write a Chrome trace-event file (Perfetto) to F\n"
      "  --trace-mask LIST  restrict --trace-json to a comma-separated category\n"
      "                     list (host,sdma,send,recv,rdma,net,barrier,reliab,all)\n"
      "  --critical-path    single run: trace causality and print the exact\n"
      "                     critical path + per-segment attribution (Eq. 1-2\n"
      "                     terms); fails if the DAG is cyclic or unattributed\n"
      "  --slo-report F     workload mode: compute per-class SLO burn rates and\n"
      "                     write the report as JSON to F (table on stdout)\n";
  return text;
}

namespace detail {

inline const char* next_arg(int argc, char** argv, int& i) {
  if (++i >= argc) return nullptr;
  return argv[i];
}

/// Accepts both `--flag value` and `--flag=value`; returns nullptr if `a` is
/// not `flag` at all. Sets `missing` when the flag matched but has no value.
inline const char* flag_value(const std::string& a, const char* flag, int argc, char** argv,
                              int& i, bool& missing) {
  const std::size_t n = std::strlen(flag);
  if (a.compare(0, n, flag) != 0) return nullptr;
  if (a.size() == n) {
    const char* v = next_arg(argc, argv, i);
    missing = (v == nullptr);
    return v;
  }
  if (a[n] == '=') return a.c_str() + n + 1;
  return nullptr;
}

/// Strict non-negative integer parse; false on empty/garbage/negative input.
inline bool parse_unsigned(const char* s, unsigned long& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  out = std::strtoul(s, &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace detail

/// Parses the nicbar_run command line. Returns std::nullopt and a message in
/// `error` when the arguments are malformed (an empty message means the
/// caller should just print usage).
inline std::optional<Options> parse(int argc, char** argv, std::string& error) {
  using detail::flag_value;
  using detail::next_arg;
  using detail::parse_unsigned;

  Options o;
  o.params.nodes = 8;
  o.params.reps = 500;
  // --location, --algorithm and --dim each keep their last value; the family
  // is resolved from them once every flag is read.
  coll::Location location = coll::Location::kNic;
  std::string_view algorithm = "pe";
  std::size_t dim = 2;
  // --nic picks the card; --clock, --reliability and --rto override it
  // whatever their order, so they are applied once every flag is read.
  const nic::NicModel* card = nullptr;
  std::optional<double> clock;
  std::optional<nic::BarrierReliability> reliability;
  std::optional<bool> adaptive_rto;
  error.clear();

  auto fail = [&error](const std::string& msg) {
    error = msg;
    return std::nullopt;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      // Positionals: the `workload`/`check` subcommands, then (for
      // workload) its spec file.
      if (!o.workload && !o.check && a == "workload") {
        o.workload = true;
      } else if (!o.workload && !o.check && a == "check") {
        o.check = true;
      } else if (o.workload && o.workload_spec_path.empty()) {
        o.workload_spec_path = a;
      } else {
        return fail("unexpected argument " + a);
      }
      continue;
    }
    // File-path options, as `--flag F` or `--flag=F`.
    bool missing = false;
    bool path_flag = false;
    for (const auto& [flag, member] : {std::pair{"--metrics-json", &Options::metrics_path},
                                       std::pair{"--trace-json", &Options::trace_path},
                                       std::pair{"--slo-report", &Options::slo_report_path},
                                       std::pair{"--report-json", &Options::report_path}}) {
      if (const char* v = flag_value(a, flag, argc, argv, i, missing)) {
        o.*member = v;
        path_flag = true;
      }
      if (missing) return fail(std::string(flag) + " needs a file path");
    }
    if (path_flag) continue;
    if (const char* v = flag_value(a, "--trace-mask", argc, argv, i, missing)) {
      const std::optional<std::uint32_t> mask = sim::parse_trace_mask(v);
      if (!mask) {
        return fail(std::string("--trace-mask: unknown category in \"") + v +
                    "\" (expected a comma-separated subset of " + sim::trace_mask_names() + ")");
      }
      o.trace_mask = *mask;
      o.have_trace_mask = true;
      continue;
    }
    if (missing) return fail("--trace-mask needs a category list");

    // Integer options: false, with the diagnostic set, unless the value
    // parses and is at least `min`.
    unsigned long n = 0;
    auto count = [&](unsigned long min) {
      if (parse_unsigned(next_arg(argc, argv, i), n) && n >= min) return true;
      error = a + (min == 0 ? " needs a non-negative integer" : " needs a positive integer");
      return false;
    };
    // Real-valued options: false, with the diagnostic set, unless the whole
    // value parses as a number in [lo, hi].
    double x = 0;
    auto real = [&](double lo, double hi, const char* range) {
      const char* s = next_arg(argc, argv, i);
      char* end = nullptr;
      if (s != nullptr) x = std::strtod(s, &end);
      if (end != nullptr && end != s && *end == '\0' && x >= lo && x <= hi) return true;
      error = a + " needs " + range;
      return false;
    };
    // Other options: false, with the diagnostic set, when the value is missing.
    const char* v = nullptr;
    auto text = [&](const char* what = "a value") {
      v = next_arg(argc, argv, i);
      if (v == nullptr) error = a + " needs " + what;
      return v != nullptr;
    };
    if (a == "--nodes") {
      if (!count(1)) return std::nullopt;
      o.params.nodes = n;
    } else if (a == "--reps") {
      if (!count(1)) return std::nullopt;
      o.params.reps = static_cast<int>(n);
    } else if (a == "--jobs") {
      if (!count(0)) return std::nullopt;
      o.jobs = static_cast<unsigned>(n);
    } else if (a == "--pdes-workers") {
      if (!count(1)) return std::nullopt;
      o.params.cluster.pdes_partitions = n;
      o.params.cluster.pdes_workers = static_cast<unsigned>(n);
      o.pdes_given = true;
    } else if (a == "--seeds") {
      if (!count(1)) return std::nullopt;
      o.seeds = n;
    } else if (a == "--location") {
      if (!text()) return std::nullopt;
      const coll::LocationName* loc = sim::find_named(coll::kLocationNames, v);
      if (loc == nullptr) return fail("--location must be " + sim::or_list(coll::kLocationNames));
      location = loc->location;
    } else if (a == "--algorithm") {
      if (!text()) return std::nullopt;
      if (coll::find_family(v, location) == nullptr) {
        return fail("--algorithm must be " + sim::or_list(coll::kFamilies));
      }
      algorithm = v;
    } else if (a == "--dim") {
      if (!count(0)) return std::nullopt;
      dim = n;
    } else if (a == "--nic") {
      if (!text()) return std::nullopt;
      card = sim::find_named(nic::kNicModels, v);
      if (card == nullptr) return fail("--nic must be " + sim::or_list(nic::kNicModels));
    } else if (a == "--clock") {
      if (!real(DBL_MIN, DBL_MAX, "a positive number of MHz")) return std::nullopt;
      clock = x;
    } else if (a == "--topology") {
      if (!text()) return std::nullopt;
      const host::TopologyName* t = sim::find_named(host::kTopologyNames, v);
      if (t == nullptr) return fail("--topology must be " + sim::or_list(host::kTopologyNames));
      o.params.cluster.topology = t->topology;
    } else if (a == "--radix") {
      if (!count(1)) return std::nullopt;
      o.params.cluster.fabric_radix = n;
    } else if (a == "--oversub") {
      if (!count(1)) return std::nullopt;
      o.params.cluster.fabric_oversub = n;
    } else if (a == "--reliability") {
      if (!text()) return std::nullopt;
      const nic::ReliabilityName* r = sim::find_named(nic::kReliabilityNames, v);
      if (r == nullptr) {
        return fail("--reliability must be " + sim::or_list(nic::kReliabilityNames));
      }
      reliability = r->mode;
    } else if (a == "--loss") {
      if (!real(0, 1, "a probability in [0, 1]")) return std::nullopt;
      o.loss = x;
    } else if (a == "--burst-loss") {
      if (!text("ENTER,EXIT,LOSSRATE")) return std::nullopt;
      if (std::sscanf(v, "%lf,%lf,%lf", &o.burst_enter, &o.burst_exit, &o.burst_rate) != 3) {
        return fail("--burst-loss needs ENTER,EXIT,LOSSRATE");
      }
      o.have_burst = true;
    } else if (a == "--fault-plan") {
      if (!text("a file path")) return std::nullopt;
      o.fault_plan_path = v;
    } else if (a == "--rto") {
      if (!text()) return std::nullopt;
      const std::string_view s = v;
      if (s != "adaptive" && s != "fixed") return fail("--rto must be adaptive or fixed");
      adaptive_rto = s == "adaptive";
    } else if (a == "--deadline-us") {
      if (!real(0, DBL_MAX, "a non-negative number of us")) return std::nullopt;
      o.params.spec.deadline = sim::microseconds(x);
    } else if (a == "--skew-us") {
      if (!real(0, DBL_MAX, "a non-negative number of us")) return std::nullopt;
      o.params.max_start_skew = sim::microseconds(x);
    } else if (a == "--layer-us") {
      if (!real(0, DBL_MAX, "a non-negative number of us")) return std::nullopt;
      o.params.cluster.gm.layer_overhead = sim::microseconds(x);
    } else if (a == "--seed") {
      if (!count(0)) return std::nullopt;
      o.params.seed = n;
      o.seed_given = true;
    } else if (a == "--cases") {
      if (!count(1)) return std::nullopt;
      o.check_cases = n;
    } else if (a == "--case-seed") {
      if (!count(0)) return std::nullopt;
      o.case_seed = n;
      o.have_case_seed = true;
    } else if (a == "--predict") {
      o.predict = true;
    } else if (a == "--breakdown") {
      o.breakdown = true;
    } else if (a == "--critical-path") {
      o.critical_path = true;
    } else {
      return fail("unknown option " + a);
    }
  }
  nic::NicConfig& nic = o.params.cluster.nic;
  if (card != nullptr) nic = card->make();
  if (clock) nic.clock_mhz = *clock;
  if (reliability) nic.barrier_reliability = *reliability;
  if (adaptive_rto) nic.adaptive_rto = *adaptive_rto;

  const coll::FamilyRow& family = *coll::find_family(algorithm, location);
  // --dim 0 asks for the GB dimension sweep; any other family takes it as given.
  o.sweep_dim = dim == 0 && family.dim == coll::DimRule::kGbDimension;
  const std::string why = coll::family_refusal(
      family.family,
      {.location = location, .dim = o.sweep_dim ? std::nullopt : std::optional(dim)});
  if (!why.empty()) {
    return fail("--algorithm " + std::string(algorithm) + ": " + why);
  }
  if (o.predict && !family.closed_form) {
    return fail("--predict evaluates the paper's Eq. 1-2 models; no closed form is fitted for " +
                std::string(family.header));
  }
  if (o.predict && o.params.cluster.topology != host::Topology::kSingleSwitch) {
    return fail("--predict: the closed forms model one switch hop; --topology " +
                std::string(host::topology_name(o.params.cluster.topology).name) +
                " routes through several");
  }
  o.params.spec = coll::family_spec({family.family, dim}, o.params.spec);

  if (o.pdes_given && o.params.cluster.pdes_partitions > 1 &&
      (o.breakdown || !o.trace_path.empty())) {
    return fail("--breakdown/--trace-json collectors are single-lane; not available "
                "with --pdes-workers > 1 (--critical-path and --metrics-json are)");
  }
  if (o.pdes_given && (o.workload || o.check)) {
    return fail("--pdes-workers applies to a single barrier experiment; not "
                "available with the workload/check subcommands");
  }
  if (o.seeds > 1 && (o.breakdown || !o.trace_path.empty() || o.critical_path)) {
    return fail("--breakdown/--trace-json/--critical-path describe a single run; "
                "not available with --seeds");
  }
  if (o.workload && o.workload_spec_path.empty()) {
    return fail("workload needs a spec file path");
  }
  if (o.workload && (o.predict || o.breakdown || !o.trace_path.empty() || o.critical_path)) {
    return fail("--predict/--breakdown/--trace-json/--critical-path describe a single "
                "barrier experiment; not available with workload");
  }
  if (o.have_trace_mask && o.trace_path.empty()) {
    return fail("--trace-mask filters --trace-json output; give --trace-json a path");
  }
  if (!o.workload && !o.report_path.empty()) {
    return fail("--report-json is only meaningful with the workload subcommand");
  }
  if (!o.workload && !o.slo_report_path.empty()) {
    return fail("--slo-report is only meaningful with the workload subcommand");
  }
  if (!o.check && (o.check_cases != 50 || o.have_case_seed)) {
    return fail("--cases/--case-seed are only meaningful with the check subcommand");
  }
  if (o.check && (o.predict || o.breakdown || o.critical_path || !o.trace_path.empty() ||
                  !o.metrics_path.empty() || o.seeds > 1)) {
    return fail("check runs a fixed validation suite; it only composes with "
                "--cases and --case-seed");
  }
  return o;
}

/// The --predict block for run `p` (simulated mean `mean_us`): its family's
/// exact closed form, then model::explain()'s terms.
inline std::string prediction(const coll::ExperimentParams& p, double mean_us) {
  const model::Form form = model::form(p.spec, p.nodes);
  const model::Inputs in{p.cluster.nic, p.cluster.gm, p.cluster.link, p.cluster.sw};
  const double eq = model::sum(form, in).exact().us();
  char line[96];
  std::snprintf(line, sizeof line, "Eq.%d prediction (%s) : %10.2f us (%.1f%% off)\n",
                p.spec.location == coll::Location::kHost ? 1 : 2,
                p.spec.algorithm == nic::BarrierAlgorithm::kPairwiseExchange ? "PE" : "GB", eq,
                100.0 * (mean_us - eq) / eq);
  return line + model::explain(form, in);
}

}  // namespace nicbar::cli
