// Command-line parsing for nicbar_run, separated from main() so the option
// grammar is unit-testable (tests/tools/cli_test.cpp). parse() never exits
// or prints: a bad command line comes back as std::nullopt plus a message,
// and main() decides what to do with it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "sim/trace.hpp"

namespace nicbar::cli {

struct Options {
  coll::ExperimentParams params;
  std::size_t dim = 2;
  bool sweep_dim = false;  // --dim 0: sweep 1..N-1 for the best dimension
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

inline const char* usage_text() {
  return
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
      "  --algorithm A      pe | gb | hier | host-dissem | host-tree (default pe;\n"
      "                     hier runs the two-level NIC family — best on a\n"
      "                     fat-tree/leaf-spine fabric; host-* run on the rma::\n"
      "                     one-sided layer and ignore --location)\n"
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
      "  --predict          also print the Eq. 1-3 analytic prediction\n"
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
  o.params.spec.location = coll::Location::kNic;
  o.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
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
    bool missing = false;
    if (const char* v = flag_value(a, "--metrics-json", argc, argv, i, missing)) {
      o.metrics_path = v;
      continue;
    }
    if (missing) return fail("--metrics-json needs a file path");
    if (const char* v = flag_value(a, "--trace-json", argc, argv, i, missing)) {
      o.trace_path = v;
      continue;
    }
    if (missing) return fail("--trace-json needs a file path");
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
    if (const char* v = flag_value(a, "--slo-report", argc, argv, i, missing)) {
      o.slo_report_path = v;
      continue;
    }
    if (missing) return fail("--slo-report needs a file path");
    if (const char* v = flag_value(a, "--report-json", argc, argv, i, missing)) {
      o.report_path = v;
      continue;
    }
    if (missing) return fail("--report-json needs a file path");

    auto value = [&](const char* flag) -> const char* {
      return a == flag ? next_arg(argc, argv, i) : nullptr;
    };
    if (a == "--nodes") {
      const char* v = value("--nodes");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--nodes needs a positive integer");
      o.params.nodes = static_cast<std::size_t>(n);
    } else if (a == "--reps") {
      const char* v = value("--reps");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--reps needs a positive integer");
      o.params.reps = static_cast<int>(n);
    } else if (a == "--jobs") {
      const char* v = value("--jobs");
      unsigned long n = 0;
      if (!parse_unsigned(v, n)) return fail("--jobs needs a non-negative integer");
      o.jobs = static_cast<unsigned>(n);
    } else if (a == "--pdes-workers") {
      const char* v = value("--pdes-workers");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--pdes-workers needs a positive integer");
      o.params.cluster.pdes_partitions = static_cast<std::size_t>(n);
      o.params.cluster.pdes_workers = static_cast<unsigned>(n);
      o.pdes_given = true;
    } else if (a == "--seeds") {
      const char* v = value("--seeds");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--seeds needs a positive integer");
      o.seeds = static_cast<std::size_t>(n);
    } else if (a == "--location") {
      const char* v = value("--location");
      if (v == nullptr) return fail("--location needs a value");
      const std::string s = v;
      if (s == "nic") {
        o.params.spec.location = coll::Location::kNic;
      } else if (s == "host") {
        o.params.spec.location = coll::Location::kHost;
      } else {
        return fail("--location must be nic or host");
      }
    } else if (a == "--algorithm") {
      const char* v = value("--algorithm");
      if (v == nullptr) return fail("--algorithm needs a value");
      const std::string s = v;
      if (s == "pe") {
        o.params.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
      } else if (s == "gb") {
        o.params.spec.algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
      } else if (s == "hier") {
        // Two-level NIC family; --dim doubles as the intra-block dimension.
        o.params.spec.hierarchical = true;
      } else if (s == "host-dissem") {
        o.params.spec.rdma = coll::RdmaAlgorithm::kDissemination;
      } else if (s == "host-tree") {
        // --dim doubles as the tree radix for this family.
        o.params.spec.rdma = coll::RdmaAlgorithm::kTreePut;
      } else {
        return fail("--algorithm must be pe, gb, hier, host-dissem, or host-tree");
      }
    } else if (a == "--dim") {
      const char* v = value("--dim");
      unsigned long n = 0;
      if (!parse_unsigned(v, n)) return fail("--dim needs a non-negative integer");
      o.dim = static_cast<std::size_t>(n);
      o.sweep_dim = (n == 0);
    } else if (a == "--nic") {
      const char* v = value("--nic");
      if (v == nullptr) return fail("--nic needs a value");
      const std::string s = v;
      if (s == "lanai43") {
        o.params.cluster.nic = nic::lanai43();
      } else if (s == "lanai72") {
        o.params.cluster.nic = nic::lanai72();
      } else {
        return fail("--nic must be lanai43 or lanai72");
      }
    } else if (a == "--clock") {
      const char* v = value("--clock");
      if (v == nullptr) return fail("--clock needs a value");
      o.params.cluster.nic.clock_mhz = std::atof(v);
    } else if (a == "--topology") {
      const char* v = value("--topology");
      if (v == nullptr) return fail("--topology needs a value");
      const std::string s = v;
      if (s == "switch") {
        o.params.cluster.topology = host::Topology::kSingleSwitch;
      } else if (s == "fat-tree") {
        o.params.cluster.topology = host::Topology::kFatTree;
      } else if (s == "leaf-spine") {
        o.params.cluster.topology = host::Topology::kLeafSpine;
      } else {
        return fail("--topology must be switch, fat-tree, or leaf-spine");
      }
    } else if (a == "--radix") {
      const char* v = value("--radix");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--radix needs a positive integer");
      o.params.cluster.fabric_radix = static_cast<std::size_t>(n);
    } else if (a == "--oversub") {
      const char* v = value("--oversub");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--oversub needs a positive integer");
      o.params.cluster.fabric_oversub = static_cast<std::size_t>(n);
    } else if (a == "--reliability") {
      const char* v = value("--reliability");
      if (v == nullptr) return fail("--reliability needs a value");
      const std::string s = v;
      if (s == "unreliable") {
        o.params.cluster.nic.barrier_reliability = nic::BarrierReliability::kUnreliable;
      } else if (s == "shared") {
        o.params.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
      } else if (s == "separate") {
        o.params.cluster.nic.barrier_reliability = nic::BarrierReliability::kSeparateAcks;
      } else {
        return fail("--reliability must be unreliable, shared, or separate");
      }
    } else if (a == "--loss") {
      const char* v = value("--loss");
      if (v == nullptr) return fail("--loss needs a value");
      o.loss = std::atof(v);
    } else if (a == "--burst-loss") {
      const char* v = value("--burst-loss");
      if (v == nullptr ||
          std::sscanf(v, "%lf,%lf,%lf", &o.burst_enter, &o.burst_exit, &o.burst_rate) != 3) {
        return fail("--burst-loss needs ENTER,EXIT,LOSSRATE");
      }
      o.have_burst = true;
    } else if (a == "--fault-plan") {
      const char* v = value("--fault-plan");
      if (v == nullptr) return fail("--fault-plan needs a file path");
      o.fault_plan_path = v;
    } else if (a == "--rto") {
      const char* v = value("--rto");
      if (v == nullptr) return fail("--rto needs a value");
      const std::string s = v;
      if (s == "adaptive") {
        o.params.cluster.nic.adaptive_rto = true;
      } else if (s == "fixed") {
        o.params.cluster.nic.adaptive_rto = false;
      } else {
        return fail("--rto must be adaptive or fixed");
      }
    } else if (a == "--deadline-us") {
      const char* v = value("--deadline-us");
      if (v == nullptr) return fail("--deadline-us needs a value");
      o.params.spec.deadline = sim::microseconds(std::atof(v));
    } else if (a == "--skew-us") {
      const char* v = value("--skew-us");
      if (v == nullptr) return fail("--skew-us needs a value");
      o.params.max_start_skew = sim::microseconds(std::atof(v));
    } else if (a == "--layer-us") {
      const char* v = value("--layer-us");
      if (v == nullptr) return fail("--layer-us needs a value");
      o.params.cluster.gm.layer_overhead = sim::microseconds(std::atof(v));
    } else if (a == "--seed") {
      const char* v = value("--seed");
      unsigned long n = 0;
      if (!parse_unsigned(v, n)) return fail("--seed needs a non-negative integer");
      o.params.seed = n;
      o.seed_given = true;
    } else if (a == "--cases") {
      const char* v = value("--cases");
      unsigned long n = 0;
      if (!parse_unsigned(v, n) || n == 0) return fail("--cases needs a positive integer");
      o.check_cases = static_cast<std::size_t>(n);
    } else if (a == "--case-seed") {
      const char* v = value("--case-seed");
      unsigned long n = 0;
      if (!parse_unsigned(v, n)) return fail("--case-seed needs a non-negative integer");
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
  o.params.spec.gb_dimension = o.dim;

  if (o.params.spec.hierarchical) {
    if (o.params.spec.rdma != coll::RdmaAlgorithm::kNone) {
      return fail("--algorithm may be given once: hier and host-* are different families");
    }
    if (o.params.spec.location != coll::Location::kNic) {
      return fail("--algorithm hier is the two-level NIC family; it requires --location nic");
    }
    if (o.sweep_dim) {
      return fail("--dim 0 sweeps the flat GB tree dimension; hier needs an "
                  "explicit intra-block dimension (--dim >= 1)");
    }
    if (o.predict) {
      return fail("--predict evaluates the paper's flat Eq. 1-3 models; "
                  "no closed form is fitted for the hierarchical family");
    }
  }

  if (o.params.spec.rdma != coll::RdmaAlgorithm::kNone) {
    if (o.sweep_dim) {
      return fail("--dim 0 sweeps the GB tree dimension; host-tree needs an "
                  "explicit radix (--dim >= 1)");
    }
    if (o.predict) {
      return fail("--predict evaluates the paper's Eq. 1-2 NIC/host models; "
                  "no closed form is fitted for the host-RDMA family");
    }
  }

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

}  // namespace nicbar::cli
