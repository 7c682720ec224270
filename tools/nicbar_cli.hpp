// Command-line parsing and the --predict text for nicbar_run, separated from
// main() so both are unit-testable (tests/tools/cli_test.cpp). parse() never
// exits or prints: a bad command line comes back as std::nullopt plus a
// message, and main() decides what to do with it.
//
// Every flag is one row of kFlags: its name, its value kind (sim/value.hpp),
// the field it sets, the modes it applies to and its help line. parse(), its
// refusals and the usage text all walk the rows, so a given flag is either
// used as written or refused by name.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "coll/family.hpp"
#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "model/timing.hpp"
#include "sim/names.hpp"
#include "sim/telemetry.hpp"
#include "sim/value.hpp"

namespace nicbar::cli {

/// What a command line runs, resolved once every flag is read: `workload`
/// and `check` by their subcommand (`check --case-seed` replays one fuzz
/// case), a barrier experiment by --seeds and then by --pdes-workers, so
/// `--seeds 1` is a single run.
enum class Mode : std::uint8_t { kSingle, kPdes, kSeeds, kWorkload, kCheck, kReplay };
struct ModeName {
  Mode mode;
  std::string_view name;
};
inline constexpr ModeName kModeNames[] = {
    {Mode::kSingle, "a single run"}, {Mode::kPdes, "--pdes-workers > 1"},
    {Mode::kSeeds, "--seeds > 1"},   {Mode::kWorkload, "workload"},
    {Mode::kCheck, "check"},         {Mode::kReplay, "check --case-seed"}};

/// A set of modes, one bit each.
using Modes = std::uint8_t;
constexpr Modes bit(Mode m) { return static_cast<Modes>(1u << static_cast<unsigned>(m)); }

/// "a single run, workload, or check".
inline std::string modes_text(Modes modes) {
  std::vector<std::string> names;
  for (const ModeName& m : kModeNames) {
    if ((modes & bit(m.mode)) != 0) names.emplace_back(m.name);
  }
  return sim::join(names, ", ", names.size() == 2 ? " or " : ", or ");
}

/// One barrier experiment, on the serial or the partitioned engine.
inline constexpr Modes kOneRun = bit(Mode::kSingle) | bit(Mode::kPdes);
/// A barrier experiment: one run, one run on the partitioned engine, or a seed sweep.
inline constexpr Modes kExperiment = kOneRun | bit(Mode::kSeeds);
/// Anything that builds a fabric: an experiment or a workload.
inline constexpr Modes kFabric = kExperiment | bit(Mode::kWorkload);

/// What parse() fills: each field is set by the kFlags row that names it
/// (see its help line), or by the positionals.
struct Options {
  Mode mode = Mode::kSingle;
  coll::ExperimentParams params;
  bool sweep_dim = false;  // --dim 0 on a GB family: sweep 1..N-1 for the best
  bool predict = false;
  bool breakdown = false;
  bool critical_path = false;
  std::string metrics_path, trace_path, slo_report_path, fault_plan_path;
  std::uint32_t trace_mask = static_cast<std::uint32_t>(sim::TraceCategory::kAll);
  double loss = 0.0;
  double burst_enter = 0.0, burst_exit = 0.0, burst_rate = 0.0;
  unsigned jobs = 1;      // 0 = one worker per hardware thread
  std::size_t seeds = 1;  // consecutive seeds from params.seed
  std::string workload_spec_path, report_path;
  std::size_t check_cases = 50;
  std::uint64_t case_seed = 0;
  std::uint64_t given_flags = 0;  // bit k: kFlags[k] was given

  /// Whether `flag` ("--seed") was on the command line.
  [[nodiscard]] bool given(std::string_view flag) const;
};

namespace detail {

/// What the rows write: the options, plus the family choice, which is
/// resolved from --location, --algorithm and --dim once every flag is read.
struct Parse {
  Options o;
  coll::Location location = coll::Location::kNic;
  std::string_view algorithm = "pe";
  std::size_t dim = 2;
  [[nodiscard]] coll::DimRule rule() const { return coll::find_family(algorithm, location)->dim; }
};

/// A file path: any non-empty text.
struct Path {
  [[nodiscard]] static std::optional<std::string> read(std::string_view text) {
    return text.empty() ? std::nullopt : std::optional<std::string>(text);
  }
  [[nodiscard]] static std::string refusal() { return "needs a file path"; }
};

/// A switch, which takes no value: given means true.
struct Switch {
  [[nodiscard]] static std::optional<bool> read(std::string_view) { return true; }
  [[nodiscard]] static std::string refusal() { return {}; }
};

}  // namespace detail

/// Whether the options have what a flag needs besides its mode.
using Has = bool (*)(const detail::Parse&);

/// One nicbar_run flag.
struct Flag {
  std::string_view name;  // "--nodes"
  std::string_view arg;   // the value in the usage text; empty for a switch
  Modes modes;
  /// The usage text after the value list; '\n' continues on the next line.
  std::string_view help;
  /// Reads `text` into the row's field; on a refused value returns what the
  /// value must be ("needs an integer in [1, 65536]").
  std::string (*set)(detail::Parse&, std::string_view text);
  /// The values of a name kind for the usage text ("nic | host"), else null.
  std::string (*choices)() = nullptr;
  /// What else the flag needs to change the run, and whether it has it.
  std::string_view needs = {};
  Has has = nullptr;
};

/// A row whose value is read by `kKind` into the field `kField` returns.
template <auto kKind, auto kField>
constexpr Flag flag(std::string_view name, std::string_view arg, Modes modes,
                    std::string_view help, std::string_view needs = {}, Has has = nullptr) {
  Flag f{name, arg, modes, help,
         [](detail::Parse& p, std::string_view text) -> std::string {
           const auto v = kKind.read(text);
           if (!v) return kKind.refusal();
           auto& field = kField(p);
           field = static_cast<std::remove_reference_t<decltype(field)>>(*v);
           return {};
         },
         nullptr, needs, has};
  if constexpr (requires { kKind.choices(); }) f.choices = [] { return kKind.choices(); };
  return f;
}

namespace detail {

/// --burst-loss E,X,L: three probabilities.
inline std::string set_burst(Parse& p, std::string_view text) {
  constexpr sim::Real kProbability{0.0, 1.0};
  double* out[] = {&p.o.burst_enter, &p.o.burst_exit, &p.o.burst_rate};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t comma = k < 2 ? text.find(',') : text.size();
    const std::optional<double> v =
        comma == std::string_view::npos ? std::nullopt : kProbability.read(text.substr(0, comma));
    if (!v) return "needs ENTER,EXIT,LOSSRATE, three numbers in [0, 1]";
    *out[k] = *v;
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return {};
}

inline std::string set_trace_mask(Parse& p, std::string_view text) {
  const std::optional<std::uint32_t> mask = sim::parse_trace_mask(text);
  if (!mask) return "needs a comma-separated subset of " + sim::trace_mask_names();
  p.o.trace_mask = *mask;
  return {};
}

inline std::string set_pdes_workers(Parse& p, std::string_view text) {
  constexpr sim::Int kWorkers{1, std::numeric_limits<unsigned>::max()};
  const std::optional<std::int64_t> n = kWorkers.read(text);
  if (!n) return kWorkers.refusal();
  p.o.params.cluster.pdes_partitions = static_cast<std::size_t>(*n);
  p.o.params.cluster.pdes_workers = static_cast<unsigned>(*n);
  return {};
}

}  // namespace detail

/// Every flag, applied in this order once all are read: a card before the
/// clock, reliability and timeout that override it, whatever the order on
/// the command line; a repeated flag keeps its last value.
#define NICBAR_FIELD(path) [](auto& p) -> auto& { return p.path; }
inline constexpr Has kShaped = [](const detail::Parse& p) {
  return host::topology_name(p.o.params.cluster.topology).shaped;
};
inline constexpr Flag kFlags[] = {
    flag<host::kNodeCount, NICBAR_FIELD(o.params.nodes)>("--nodes", "N", kExperiment,
                                                         "group size (default 8)"),
    flag<sim::Int{1, std::numeric_limits<int>::max()}, NICBAR_FIELD(o.params.reps)>(
        "--reps", "R", kExperiment, "consecutive barriers to average (default 500)"),
    flag<sim::Name<coll::kLocationNames, &coll::LocationName::location>{},
         NICBAR_FIELD(location)>("--location", "L", kExperiment, "(default nic)"),
    flag<sim::Name<coll::kFamilies, &coll::FamilyRow::name>{}, NICBAR_FIELD(algorithm)>(
        "--algorithm", "A", kExperiment,
        "(default pe; hier runs the two-level NIC family, best on\n"
        "a fat-tree or leaf-spine; host-* run on the rma::\n"
        "one-sided layer and ignore --location)"),
    flag<coll::kDimension, NICBAR_FIELD(dim)>(
        "--dim", "D", kExperiment,
        "GB tree dimension / host-tree radix / hier intra-block\n"
        "dimension (default 2; 0 = sweep for best, GB only)",
        "an --algorithm with a parameter (gb, hier, or host-tree)",
        [](const detail::Parse& p) { return p.rule() != coll::DimRule::kIgnored; }),
    {"--nic", "MODEL", kExperiment, "(default lanai43)",
     [](detail::Parse& p, std::string_view text) -> std::string {
       const auto card = sim::Name<nic::kNicModels>::read(text);
       if (!card) return sim::Name<nic::kNicModels>::refusal();
       p.o.params.cluster.nic = (*card)->make();
       return {};
     },
     sim::Name<nic::kNicModels>::choices},
    flag<sim::kMhz, NICBAR_FIELD(o.params.cluster.nic.clock_mhz)>("--clock", "MHZ", kExperiment,
                                                                  "override the NIC clock"),
    flag<sim::Name<nic::kReliabilityNames, &nic::ReliabilityName::mode>{},
         NICBAR_FIELD(o.params.cluster.nic.barrier_reliability)>(
        "--reliability", "M", kExperiment, "(default unreliable)"),
    flag<sim::Name<nic::kRtoNames, &nic::RtoName::adaptive>{},
         NICBAR_FIELD(o.params.cluster.nic.adaptive_rto)>(
        "--rto", "M", kExperiment, "retransmission timeout (default adaptive)"),
    flag<sim::Name<host::kTopologyNames, &host::TopologyName::topology>{},
         NICBAR_FIELD(o.params.cluster.topology)>(
        "--topology", "T", kExperiment,
        "(default switch; a radix-K switch tree is fat-tree\n--radix K --oversub K-1)"),
    flag<host::kFabricRadix, NICBAR_FIELD(o.params.cluster.fabric_radix)>(
        "--radix", "R", kExperiment, "fat-tree/leaf-spine switch radix (default 16)",
        "--topology fat-tree or leaf-spine", kShaped),
    flag<host::kOversub, NICBAR_FIELD(o.params.cluster.fabric_oversub)>(
        "--oversub", "Q", kExperiment,
        "fat-tree/leaf-spine oversubscription ratio Q:1\n(default 1 = non-blocking)",
        "--topology fat-tree or leaf-spine", kShaped),
    flag<sim::Real{0.0, 1.0}, NICBAR_FIELD(o.loss)>(
        "--loss", "P", kFabric, "i.i.d. drop probability on every link (default 0)"),
    {"--burst-loss", "E,X,L", kFabric,
     "Gilbert-Elliott loss on every link: P(enter bad),\nP(exit bad), loss rate while bad",
     detail::set_burst},
    flag<detail::Path{}, NICBAR_FIELD(o.fault_plan_path)>(
        "--fault-plan", "F", kFabric, "load a declarative fault plan (see sim/fault.hpp)"),
    flag<sim::Micros{}, NICBAR_FIELD(o.params.spec.deadline)>(
        "--deadline-us", "D", kExperiment, "per-barrier abort deadline in us (default 0 = none)"),
    flag<sim::Micros{}, NICBAR_FIELD(o.params.max_start_skew)>(
        "--skew-us", "S", kExperiment, "max random start skew in us (default 0)"),
    flag<sim::Micros{}, NICBAR_FIELD(o.params.cluster.gm.layer_overhead)>(
        "--layer-us", "L", kExperiment, "per-call software layer overhead in us (default 0)"),
    flag<sim::kSeed, NICBAR_FIELD(o.params.seed)>(
        "--seed", "S", kFabric | bit(Mode::kCheck),
        "RNG seed (default 1; a workload's replaces its spec's)"),
    flag<sim::Int{1, std::numeric_limits<std::int64_t>::max()}, NICBAR_FIELD(o.seeds)>(
        "--seeds", "K", kFabric, "run K consecutive seeds as one sweep (default 1)"),
    flag<sim::Int{0, std::numeric_limits<unsigned>::max()}, NICBAR_FIELD(o.jobs)>(
        "--jobs", "N", kFabric, "worker threads for sweeps (default 1; 0 = all cores)",
        "a sweep to shard (--seeds > 1, or --dim 0 on GB)", [](const detail::Parse& p) {
          return p.o.seeds > 1 || (p.dim == 0 && p.rule() == coll::DimRule::kGbDimension);
        }),
    {"--pdes-workers", "N", kExperiment,
     "N leaf-aligned PDES partitions on N threads (default\n"
     "1 = serial); every simulated number is bit-identical",
     detail::set_pdes_workers},
    flag<sim::Int{1, std::numeric_limits<std::int64_t>::max()}, NICBAR_FIELD(o.check_cases)>(
        "--cases", "N", bit(Mode::kCheck), "number of random fuzz cases (default 50)"),
    flag<sim::kSeed, NICBAR_FIELD(o.case_seed)>(
        "--case-seed", "S", bit(Mode::kReplay),
        "replay a single fuzz case by its seed (printed with\nevery fuzz failure)"),
    flag<detail::Switch{}, NICBAR_FIELD(o.predict)>(
        "--predict", "", kOneRun,
        "also print the family's Eq. 1-2 closed form, by term", "--nodes >= 2",
        [](const detail::Parse& p) { return p.o.params.nodes >= 2; }),
    flag<detail::Switch{}, NICBAR_FIELD(o.breakdown)>(
        "--breakdown", "", kOneRun,
        "print the critical path grouped into the Eq. 1-2 rows"),
    flag<detail::Switch{}, NICBAR_FIELD(o.critical_path)>(
        "--critical-path", "", kOneRun,
        "print the exact critical path and its attribution;\n"
        "fails if the causal DAG is cyclic or unattributed"),
    flag<detail::Path{}, NICBAR_FIELD(o.metrics_path)>(
        "--metrics-json", "F", kFabric, "write hardware counters/gauges as JSON to F"),
    flag<detail::Path{}, NICBAR_FIELD(o.trace_path)>(
        "--trace-json", "F", kOneRun, "write a Chrome trace-event file (Perfetto) to F"),
    {"--trace-mask", "LIST", kOneRun,
     "restrict --trace-json to a comma-separated list of\nsdma,send,recv,rdma,net,all",
     detail::set_trace_mask, nullptr, "--trace-json",
     [](const detail::Parse& p) { return !p.o.trace_path.empty(); }},
    flag<detail::Path{}, NICBAR_FIELD(o.report_path)>(
        "--report-json", "F", bit(Mode::kWorkload), "write the wl::Report as JSON to F"),
    flag<detail::Path{}, NICBAR_FIELD(o.slo_report_path)>(
        "--slo-report", "F", bit(Mode::kWorkload),
        "compute per-class SLO burn rates and write the\nreport as JSON to F (table on stdout)"),
};
#undef NICBAR_FIELD
static_assert(std::size(kFlags) <= 64, "Options::given_flags holds one bit per flag");

/// The row named `name`; nullptr if none.
constexpr const Flag* find_flag(std::string_view name) { return sim::find_named(kFlags, name); }

inline bool Options::given(std::string_view flag) const {
  const Flag* f = find_flag(flag);
  return f != nullptr && (given_flags >> (f - kFlags) & 1u) != 0;
}

/// The usage text: the subcommands, then one entry per row.
inline std::string usage_text() {
  std::string text =
      "  workload SPEC      run a multi-tenant workload from a spec file (see\n"
      "                     src/wl/spec.hpp for the grammar)\n"
      "  check              run the validation pass: differential oracle (closed\n"
      "                     forms vs simulator) + metamorphic property suite +\n"
      "                     random fuzz cases; non-zero exit on any failure\n";
  for (const Flag& f : kFlags) {
    std::string head = "  " + std::string(f.name) + (f.arg.empty() ? "" : " ") + std::string(f.arg);
    head.resize(std::max<std::size_t>(head.size() + 1, 21), ' ');
    std::string body = f.choices != nullptr ? f.choices() + "\n" : "";
    body += f.help;
    if (f.modes != kExperiment) body += "\n[" + modes_text(f.modes) + "]";
    for (std::size_t start = 0; start <= body.size();) {
      const std::size_t end = std::min(body.find('\n', start), body.size());
      text += (start == 0 ? head : std::string(21, ' ')) + body.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  return text;
}

/// Parses the nicbar_run command line. Returns std::nullopt and a message in
/// `error` when the arguments are malformed (an empty message means the
/// caller should just print usage).
inline std::optional<Options> parse(int argc, char** argv, std::string& error) {
  detail::Parse p;
  Options& o = p.o;
  o.params.nodes = 8;
  o.params.reps = 500;
  error.clear();
  auto fail = [&error](const std::string& msg) {
    error = msg;
    return std::nullopt;
  };

  // Every flag's last value, as `--flag value` or `--flag=value`.
  std::array<std::optional<std::string_view>, std::size(kFlags)> values;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      // Positionals: the `workload`/`check` subcommands, then (for
      // workload) its spec file.
      if (o.mode == Mode::kSingle && (a == "workload" || a == "check")) {
        o.mode = a == "workload" ? Mode::kWorkload : Mode::kCheck;
      } else if (o.mode == Mode::kWorkload && o.workload_spec_path.empty()) {
        o.workload_spec_path = a;
      } else {
        return fail("unexpected argument " + a);
      }
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const Flag* f = find_flag(name);
    if (f == nullptr) return fail("unknown option " + a);
    std::string_view& value = values[static_cast<std::size_t>(f - kFlags)].emplace();
    if (eq != std::string::npos) {
      if (f->arg.empty()) return fail(name + " takes no value");
      value = std::string_view(argv[i]).substr(eq + 1);
    } else if (!f->arg.empty() && i + 1 < argc) {
      value = argv[++i];
    }
  }

  for (std::size_t k = 0; k < std::size(kFlags); ++k) {
    if (!values[k]) continue;
    o.given_flags |= std::uint64_t{1} << k;
    if (const std::string why = kFlags[k].set(p, *values[k]); !why.empty()) {
      return fail(std::string(kFlags[k].name) + " " + why);
    }
  }

  if (o.mode == Mode::kCheck && o.given("--case-seed")) o.mode = Mode::kReplay;
  if (o.mode == Mode::kSingle && o.seeds > 1) o.mode = Mode::kSeeds;
  if (o.mode == Mode::kSingle && o.params.cluster.pdes_partitions > 1) o.mode = Mode::kPdes;
  for (const Flag& f : kFlags) {
    if (!o.given(f.name)) continue;
    if ((f.modes & bit(o.mode)) == 0) {
      return fail(std::string(f.name) + " does not apply to " +
                  std::string(kModeNames[static_cast<std::size_t>(o.mode)].name) +
                  "; it applies to " + modes_text(f.modes));
    }
    if (f.has != nullptr && !f.has(p)) {
      return fail(std::string(f.name) + " needs " + std::string(f.needs));
    }
  }
  if (o.mode == Mode::kWorkload && o.workload_spec_path.empty()) {
    return fail("workload needs a spec file path");
  }

  const coll::FamilyRow& family = *coll::find_family(p.algorithm, p.location);
  // --dim 0 asks for the GB dimension sweep; any other family takes it as given.
  o.sweep_dim = p.dim == 0 && family.dim == coll::DimRule::kGbDimension;
  const std::string why = coll::family_refusal(
      family.family,
      {.location = p.location, .dim = o.sweep_dim ? std::nullopt : std::optional(p.dim)});
  if (!why.empty()) {
    return fail("--algorithm " + std::string(p.algorithm) + ": " + why);
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
  o.params.spec = coll::family_spec({family.family, p.dim}, o.params.spec);
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
