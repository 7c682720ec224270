#include "nicbar_cli.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "wl/spec.hpp"

namespace nicbar::cli {
namespace {

/// parse() wants main()'s argc/argv; build them from a brace list (argv[0]
/// is the program name, as in a real invocation).
std::optional<Options> parse_args(std::vector<std::string> args, std::string& error) {
  args.insert(args.begin(), "nicbar_run");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(CliTest, DefaultsMatchTheTool) {
  std::string err;
  const auto o = parse_args({}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.nodes, 8u);
  EXPECT_EQ(o->params.reps, 500);
  EXPECT_EQ(o->params.spec.location, coll::Location::kNic);
  EXPECT_EQ(o->params.spec.algorithm, nic::BarrierAlgorithm::kPairwiseExchange);
  EXPECT_EQ(o->params.spec.gb_dimension, 2u);
  EXPECT_EQ(o->jobs, 1u);
  EXPECT_EQ(o->seeds, 1u);
  EXPECT_FALSE(o->sweep_dim);
}

TEST(CliTest, JobsAcceptsSpaceAndZero) {
  std::string err;
  auto o = parse_args({"--seeds", "2", "--jobs", "4"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->jobs, 4u);

  o = parse_args({"--algorithm", "gb", "--dim", "0", "--jobs", "0"}, err);  // 0 = all cores
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->jobs, 0u);
}

TEST(CliTest, JobsRejectsGarbage) {
  std::string err;
  EXPECT_FALSE(parse_args({"--jobs", "many"}, err).has_value());
  EXPECT_NE(err.find("--jobs"), std::string::npos);
  EXPECT_FALSE(parse_args({"--jobs", "-2"}, err).has_value());
  EXPECT_FALSE(parse_args({"--jobs"}, err).has_value());
}

TEST(CliTest, SeedsParsesAndRejectsZero) {
  std::string err;
  const auto o = parse_args({"--seeds", "5", "--seed", "10"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->seeds, 5u);
  EXPECT_EQ(o->params.seed, 10u);
  EXPECT_FALSE(parse_args({"--seeds", "0"}, err).has_value());
}

TEST(CliTest, SeedsExcludesSingleRunArtifacts) {
  std::string err;
  EXPECT_FALSE(parse_args({"--seeds", "3", "--breakdown"}, err).has_value());
  EXPECT_FALSE(parse_args({"--seeds", "3", "--trace-json", "t.json"}, err).has_value());
  // --metrics-json is fine with --seeds: it routes through a shared sink.
  EXPECT_TRUE(parse_args({"--seeds", "3", "--metrics-json", "m.json"}, err).has_value()) << err;
}

TEST(CliTest, EqualsFormForFileFlags) {
  std::string err;
  const auto o = parse_args({"--metrics-json=m.json", "--trace-json=t.json"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->metrics_path, "m.json");
  EXPECT_EQ(o->trace_path, "t.json");
}

TEST(CliTest, DimZeroRequestsSweep) {
  std::string err;
  const auto o = parse_args({"--algorithm", "gb", "--dim", "0"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->sweep_dim);
  EXPECT_EQ(o->params.spec.algorithm, nic::BarrierAlgorithm::kGatherBroadcast);
}

TEST(CliTest, EnumValuesParse) {
  std::string err;
  const auto o = parse_args({"--location", "host", "--algorithm", "gb", "--nic", "lanai72",
                             "--topology", "leaf-spine", "--reliability", "separate", "--rto",
                             "fixed"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.spec.location, coll::Location::kHost);
  EXPECT_EQ(o->params.spec.algorithm, nic::BarrierAlgorithm::kGatherBroadcast);
  EXPECT_EQ(o->params.cluster.nic.model, nic::lanai72().model);
  EXPECT_EQ(o->params.cluster.topology, host::Topology::kLeafSpine);
  EXPECT_EQ(o->params.cluster.nic.barrier_reliability, nic::BarrierReliability::kSeparateAcks);
  EXPECT_FALSE(o->params.cluster.nic.adaptive_rto);
}

TEST(CliTest, HostRdmaAlgorithmsParse) {
  std::string err;
  auto o = parse_args({"--algorithm", "host-dissem"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kHostDissem);

  o = parse_args({"--algorithm", "host-tree", "--dim", "4"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kHostTree);
  EXPECT_EQ(o->params.spec.gb_dimension, 4u);  // --dim = tree radix
}

TEST(CliTest, HostRdmaRejectsDimSweepAndPredict) {
  std::string err;
  EXPECT_FALSE(parse_args({"--algorithm", "host-tree", "--dim", "0"}, err).has_value());
  EXPECT_NE(err.find("radix"), std::string::npos);
  EXPECT_FALSE(parse_args({"--algorithm", "host-dissem", "--predict"}, err).has_value());
}

TEST(CliTest, LastAlgorithmFlagSelectsTheWholeFamily) {
  // A later --algorithm replaces the family outright, whichever families
  // the two flags name.
  std::string err;
  auto o = parse_args({"--nodes", "8", "--reps", "20", "--algorithm", "host-tree", "--algorithm",
                       "gb", "--dim", "2"},
                      err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kNicGb);
  EXPECT_EQ(o->params.spec.gb_dimension, 2u);

  o = parse_args({"--algorithm", "hier", "--algorithm", "pe"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kNicPe);

  o = parse_args({"--algorithm", "hier", "--algorithm", "host-dissem"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kHostDissem);

  // --location pairs with the last --algorithm, before or after it.
  o = parse_args({"--algorithm", "gb", "--location", "host"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(coll::family_of(o->params.spec), coll::Family::kHostGb);
}

TEST(CliTest, HierRefusesTheHostLocationAndPredict) {
  std::string err;
  EXPECT_FALSE(parse_args({"--algorithm", "hier", "--location", "host"}, err).has_value());
  EXPECT_NE(err.find("NIC-based location"), std::string::npos) << err;
  EXPECT_FALSE(parse_args({"--algorithm", "hier", "--dim", "0"}, err).has_value());
  EXPECT_NE(err.find("intra-block dimension"), std::string::npos) << err;
  EXPECT_FALSE(parse_args({"--algorithm", "hier", "--predict"}, err).has_value());
  EXPECT_NE(err.find("--predict"), std::string::npos) << err;
}

TEST(CliTest, ValueListsComeFromTheNameTables) {
  std::string err;
  EXPECT_FALSE(parse_args({"--algorithm", "ring"}, err).has_value());
  EXPECT_NE(err.find("pe, gb, hier, host-dissem, or host-tree"), std::string::npos) << err;
  EXPECT_FALSE(parse_args({"--topology", "chain"}, err).has_value());
  EXPECT_NE(err.find("switch, fat-tree, or leaf-spine"), std::string::npos) << err;
  EXPECT_FALSE(parse_args({"--nic", "lanai9"}, err).has_value());
  EXPECT_NE(err.find("lanai43 or lanai72"), std::string::npos) << err;
  EXPECT_FALSE(parse_args({"--reliability", "maybe"}, err).has_value());
  EXPECT_NE(err.find("unreliable, shared, or separate"), std::string::npos) << err;
  EXPECT_NE(usage_text().find("pe | gb | hier | host-dissem | host-tree"), std::string::npos);
}

TEST(CliTest, BadEnumValueReportsTheFlag) {
  std::string err;
  EXPECT_FALSE(parse_args({"--location", "gpu"}, err).has_value());
  EXPECT_NE(err.find("--location"), std::string::npos);
}

TEST(CliTest, RetiredTopologiesAreRejectedNamingTheAcceptedOnes) {
  for (const char* retired : {"chain", "tree"}) {
    std::string err;
    EXPECT_FALSE(parse_args({"--topology", retired}, err).has_value()) << retired;
    EXPECT_NE(err.find("switch, fat-tree, or leaf-spine"), std::string::npos) << err;
  }
}

TEST(CliTest, UnknownFlagFails) {
  std::string err;
  EXPECT_FALSE(parse_args({"--frobnicate"}, err).has_value());
  EXPECT_NE(err.find("--frobnicate"), std::string::npos);
}

TEST(CliTest, NodesAndRepsRejectNonPositive) {
  std::string err;
  EXPECT_FALSE(parse_args({"--nodes", "0"}, err).has_value());
  EXPECT_FALSE(parse_args({"--reps", "0"}, err).has_value());
  EXPECT_FALSE(parse_args({"--nodes", "8x"}, err).has_value());
}

TEST(CliTest, WorkloadSubcommandTakesASpecPath) {
  std::string err;
  const auto o = parse_args({"workload", "spec.wl"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kWorkload);
  EXPECT_EQ(o->workload_spec_path, "spec.wl");
  EXPECT_FALSE(o->given("--seed"));
}

TEST(CliTest, WorkloadComposesWithSweepAndFaultFlags) {
  std::string err;
  const auto o = parse_args({"workload", "spec.wl", "--seeds", "5", "--jobs", "4", "--seed",
                             "9", "--loss", "0.01", "--report-json", "r.json"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kWorkload);
  EXPECT_EQ(o->seeds, 5u);
  EXPECT_EQ(o->jobs, 4u);
  EXPECT_TRUE(o->given("--seed"));
  EXPECT_EQ(o->params.seed, 9u);
  EXPECT_EQ(o->report_path, "r.json");
}

TEST(CliTest, WorkloadRequiresASpecFile) {
  std::string err;
  EXPECT_FALSE(parse_args({"workload"}, err).has_value());
  EXPECT_NE(err.find("spec file"), std::string::npos);
}

TEST(CliTest, WorkloadRejectsSingleRunOnlyArtifacts) {
  std::string err;
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--breakdown"}, err).has_value());
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--predict"}, err).has_value());
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--trace-json", "t.json"}, err).has_value());
  // The shared metrics sink still works: one document per seed.
  EXPECT_TRUE(parse_args({"workload", "spec.wl", "--metrics-json", "m.json"}, err).has_value())
      << err;
}

TEST(CliTest, ReportJsonIsWorkloadOnly) {
  std::string err;
  EXPECT_FALSE(parse_args({"--report-json", "r.json"}, err).has_value());
  EXPECT_NE(err.find("--report-json"), std::string::npos);
}

TEST(CliTest, StrayPositionalFails) {
  std::string err;
  EXPECT_FALSE(parse_args({"banana"}, err).has_value());
  EXPECT_NE(err.find("banana"), std::string::npos);
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "extra"}, err).has_value());
}

TEST(CliTest, CheckSubcommandParses) {
  std::string err;
  const auto o = parse_args({"check"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kCheck);
  EXPECT_EQ(o->check_cases, 50u);
  EXPECT_FALSE(o->given("--case-seed"));
}

TEST(CliTest, CheckComposesWithCasesAndCaseSeed) {
  std::string err;
  auto o = parse_args({"check", "--cases", "120", "--seed", "7"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->check_cases, 120u);
  EXPECT_EQ(o->params.seed, 7u);

  o = parse_args({"check", "--case-seed", "12345"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kReplay);
  EXPECT_EQ(o->case_seed, 12345u);
}

TEST(CliTest, CheckFlagsRequireTheSubcommand) {
  std::string err;
  EXPECT_FALSE(parse_args({"--cases", "10"}, err).has_value());
  EXPECT_NE(err.find("check"), std::string::npos);
  EXPECT_FALSE(parse_args({"--case-seed", "1"}, err).has_value());
}

TEST(CliTest, CheckRejectsGarbageAndSingleRunArtifacts) {
  std::string err;
  EXPECT_FALSE(parse_args({"check", "--cases", "0"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--cases", "lots"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--case-seed", "soon"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--breakdown"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--predict"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--seeds", "3"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--metrics-json", "m.json"}, err).has_value());
}

TEST(CliTest, TraceMaskParsesCategoryLists) {
  std::string err;
  auto o = parse_args({"--trace-json", "t.json", "--trace-mask", "send,recv"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->given("--trace-mask"));
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kSend) |
                               static_cast<std::uint32_t>(sim::TraceCategory::kRecv));

  o = parse_args({"--trace-json=t.json", "--trace-mask=net"}, err);  // = form too
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kNet));

  // Default: everything passes, not flagged as user-given.
  o = parse_args({"--trace-json", "t.json"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_FALSE(o->given("--trace-mask"));
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kAll));
}

TEST(CliTest, TraceMaskRejectsUnknownNamesWithTheAcceptedList) {
  std::string err;
  EXPECT_FALSE(parse_args({"--trace-json", "t.json", "--trace-mask", "bogus"}, err).has_value());
  EXPECT_NE(err.find("--trace-mask"), std::string::npos);
  EXPECT_NE(err.find("sdma,send,recv,rdma,net,all"), std::string::npos) << err;  // the accepted set
  EXPECT_FALSE(parse_args({"--trace-json", "t.json", "--trace-mask", ""}, err).has_value());
  EXPECT_FALSE(parse_args({"--trace-mask"}, err).has_value());
}

TEST(CliTest, TraceMaskRequiresTraceJson) {
  std::string err;
  EXPECT_FALSE(parse_args({"--trace-mask", "net"}, err).has_value());
  EXPECT_NE(err.find("--trace-json"), std::string::npos);
}

TEST(CliTest, CriticalPathIsSingleRunOnly) {
  std::string err;
  const auto o = parse_args({"--nodes", "16", "--critical-path"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->critical_path);
  EXPECT_FALSE(parse_args({"--critical-path", "--seeds", "3"}, err).has_value());
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--critical-path"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "--critical-path"}, err).has_value());
  // Composes with the other single-run artifacts.
  EXPECT_TRUE(
      parse_args({"--critical-path", "--breakdown", "--trace-json", "t.json"}, err).has_value())
      << err;
}

TEST(CliTest, SloReportIsWorkloadOnly) {
  std::string err;
  const auto o = parse_args({"workload", "spec.wl", "--slo-report", "slo.json"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->slo_report_path, "slo.json");
  EXPECT_FALSE(parse_args({"--slo-report", "slo.json"}, err).has_value());
  EXPECT_NE(err.find("--slo-report"), std::string::npos);
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--slo-report"}, err).has_value());
  // Composes with the seed sweep (one report per seed, like --report-json).
  EXPECT_TRUE(
      parse_args({"workload", "spec.wl", "--seeds", "3", "--slo-report", "s.json"}, err)
          .has_value())
      << err;
}

TEST(CliTest, CheckAndWorkloadAreMutuallyExclusive) {
  std::string err;
  // After `workload`, the next positional is the spec path — even if it
  // happens to spell "check"; no accidental double subcommand.
  const auto o = parse_args({"workload", "check"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kWorkload);
  EXPECT_EQ(o->workload_spec_path, "check");
  EXPECT_FALSE(parse_args({"check", "workload"}, err).has_value());
  EXPECT_FALSE(parse_args({"check", "extra"}, err).has_value());
}

TEST(CliTest, SeedsAndRtoRejectGarbageValues) {
  std::string err;
  EXPECT_FALSE(parse_args({"--seeds", "several"}, err).has_value());
  EXPECT_NE(err.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse_args({"--rto", "sometimes"}, err).has_value());
  EXPECT_NE(err.find("--rto"), std::string::npos);
}

TEST(CliTest, BurstLossParsesTriple) {
  std::string err;
  const auto o = parse_args({"--burst-loss", "0.01,0.5,0.9"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->given("--burst-loss"));
  EXPECT_DOUBLE_EQ(o->burst_enter, 0.01);
  EXPECT_DOUBLE_EQ(o->burst_exit, 0.5);
  EXPECT_DOUBLE_EQ(o->burst_rate, 0.9);
  EXPECT_FALSE(parse_args({"--burst-loss", "0.01,0.5"}, err).has_value());
}

TEST(CliTest, PdesWorkersParses) {
  std::string err;
  const auto o = parse_args({"--pdes-workers", "4"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->given("--pdes-workers"));
  EXPECT_EQ(o->mode, Mode::kPdes);
  EXPECT_EQ(o->params.cluster.pdes_partitions, 4u);
  EXPECT_EQ(o->params.cluster.pdes_workers, 4u);

  // Default: serial engine, flag not given.
  const auto d = parse_args({}, err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_FALSE(d->given("--pdes-workers"));
  EXPECT_EQ(d->params.cluster.pdes_partitions, 1u);
}

TEST(CliTest, PdesWorkersRejectsZeroAndGarbage) {
  std::string err;
  EXPECT_FALSE(parse_args({"--pdes-workers", "0"}, err).has_value());
  EXPECT_NE(err.find("--pdes-workers"), std::string::npos);
  EXPECT_FALSE(parse_args({"--pdes-workers", "lots"}, err).has_value());
  EXPECT_FALSE(parse_args({"--pdes-workers"}, err).has_value());
}

TEST(CliTest, PdesWorkersComposesWithEveryView) {
  // --breakdown, --trace-json and --critical-path all read the sharded span
  // record, so they work on the partitioned engine as on the serial one.
  std::string err;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--pdes-workers", "4", "--breakdown"},
        {"--pdes-workers", "4", "--trace-json", "t.json", "--trace-mask", "send,net"},
        {"--pdes-workers", "4", "--critical-path"},
        {"--pdes-workers", "1", "--breakdown"}}) {
    EXPECT_TRUE(parse_args(args, err).has_value()) << err;
  }
  // A seed sweep still has no single run to draw.
  EXPECT_FALSE(parse_args({"--seeds", "2", "--pdes-workers", "4", "--breakdown"}, err).has_value());
  EXPECT_NE(err.find("--breakdown"), std::string::npos);
}

TEST(CliTest, PdesWorkersIsExperimentOnly) {
  std::string err;
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--pdes-workers", "2"}, err).has_value());
  EXPECT_NE(err.find("--pdes-workers"), std::string::npos);
  EXPECT_FALSE(parse_args({"check", "--pdes-workers", "2"}, err).has_value());
}

TEST(CliTest, PredictDescribesTheRunItIsGiven) {
  // The family's own closed form at the run's size and dimension: GB prices
  // its tree, and a non-power-of-two PE group its compounded fold rounds.
  std::string err;
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"--nodes", "16", "--algorithm", "gb", "--dim", "3", "--predict"},
       "Eq.2 prediction (GB) :     185.05 us"},
      {{"--nodes", "12", "--location", "host", "--predict"},
       "Eq.1 prediction (PE) :     227.58 us"},
      {{"--nodes", "16", "--predict"}, "Eq.2 prediction (PE) :     101.00 us"}};
  for (const auto& [args, line] : cases) {
    const auto o = parse_args(args, err);
    ASSERT_TRUE(o.has_value()) << err;
    EXPECT_EQ(prediction(o->params, 0.0).rfind(line, 0), 0u) << prediction(o->params, 0.0);
  }
}

TEST(CliTest, PredictRefusesMultiSwitchTopologies) {
  std::string err;
  for (const char* topology : {"fat-tree", "leaf-spine"}) {
    EXPECT_FALSE(parse_args({"--nodes", "64", "--topology", topology, "--radix", "8", "--predict"},
                            err)
                     .has_value());
    EXPECT_NE(err.find("--predict"), std::string::npos) << err;
    EXPECT_NE(err.find(topology), std::string::npos) << err;
  }
  EXPECT_TRUE(parse_args({"--topology", "switch", "--predict"}, err).has_value()) << err;
}

TEST(CliTest, NicOverridesHoldWhateverTheOrder) {
  std::string err;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--reliability", "shared", "--clock", "66", "--rto", "fixed",
                                 "--nic", "lanai43"},
        std::vector<std::string>{"--nic", "lanai43", "--reliability", "shared", "--clock", "66",
                                 "--rto", "fixed"}}) {
    const auto o = parse_args(args, err);
    ASSERT_TRUE(o.has_value()) << err;
    const nic::NicConfig& nic = o->params.cluster.nic;
    EXPECT_EQ(nic.model, nic::lanai43().model);
    EXPECT_EQ(nic.clock_mhz, 66.0);
    EXPECT_EQ(nic.barrier_reliability, nic::BarrierReliability::kSharedStream);
    EXPECT_FALSE(nic.adaptive_rto);
  }
  const auto o = parse_args({"--nic", "lanai72"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.cluster.nic.clock_mhz, nic::lanai72().clock_mhz);
}

TEST(CliTest, RealValuedFlagsRejectGarbageAndOutOfRangeNamingTheFlag) {
  std::string err;
  const std::pair<const char*, const char*> bad[] = {
      {"--clock", "abc"},      {"--clock", "0"},         {"--clock", "-33"},
      {"--clock", "inf"},      {"--loss", "banana"},     {"--loss", "1.5"},
      {"--loss", "-0.1"},      {"--loss", "nan"},        {"--skew-us", "-5"},
      {"--layer-us", "x"},     {"--deadline-us", "10x"}, {"--deadline-us", ""}};
  for (const auto& [flag, value] : bad) {
    EXPECT_FALSE(parse_args({flag, value}, err).has_value()) << flag << " " << value;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
  }
  EXPECT_FALSE(parse_args({"--skew-us"}, err).has_value());
  EXPECT_NE(err.find("--skew-us"), std::string::npos) << err;

  const auto o = parse_args({"--clock", "66.5", "--loss", "1", "--skew-us", "0", "--layer-us",
                             "2.5", "--deadline-us", "3e2"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.cluster.nic.clock_mhz, 66.5);
  EXPECT_EQ(o->loss, 1.0);
  EXPECT_EQ(o->params.cluster.gm.layer_overhead, sim::microseconds(2.5));
  EXPECT_EQ(o->params.spec.deadline, sim::microseconds(300.0));
}

/// Everything a mode can read from the options, as text, so two parses can
/// be compared; the given-flag bits are left out on purpose.
std::string describe(const Options& o) {
  const coll::ExperimentParams& p = o.params;
  const nic::NicConfig& nic = p.cluster.nic;
  std::ostringstream os;
  os << static_cast<int>(o.mode) << '|' << p.nodes << '|' << p.reps << '|' << p.seed << '|'
     << static_cast<int>(p.spec.location) << static_cast<int>(p.spec.algorithm)
     << static_cast<int>(p.spec.rdma) << p.spec.hierarchical << '|' << p.spec.gb_dimension << '|'
     << p.spec.deadline.ps() << '|' << p.max_start_skew.ps() << '|'
     << static_cast<int>(p.cluster.topology) << '|' << p.cluster.fabric_radix << '|'
     << p.cluster.fabric_oversub << '|' << nic.model << '|' << nic.clock_mhz << '|'
     << static_cast<int>(nic.barrier_reliability) << nic.adaptive_rto << '|'
     << p.cluster.gm.layer_overhead.ps() << '|' << p.cluster.pdes_partitions << '|'
     << p.cluster.pdes_workers << '|' << o.sweep_dim << o.predict << o.breakdown
     << o.critical_path << '|' << o.metrics_path << '|' << o.trace_path << '|' << o.trace_mask
     << '|' << o.slo_report_path << '|' << o.fault_plan_path << '|' << o.loss << '|'
     << o.burst_enter << ',' << o.burst_exit << ',' << o.burst_rate << '|' << o.jobs << '|'
     << o.seeds << '|' << o.workload_spec_path << '|' << o.report_path << '|' << o.check_cases
     << '|' << o.case_seed;
  return os.str();
}

/// A valid value for every flag that differs from its default, and the flags
/// it needs to change the run.
struct Sample {
  std::string_view flag;
  std::vector<std::string> value;
  std::vector<std::string> needs = {};
};

const Sample* sample_of(std::string_view flag) {
  static const std::vector<Sample> samples = {
      {"--nodes", {"5"}},
      {"--reps", {"7"}},
      {"--location", {"host"}},
      {"--algorithm", {"gb"}},
      {"--dim", {"3"}, {"--algorithm", "gb"}},
      {"--nic", {"lanai72"}},
      {"--clock", {"50"}},
      {"--reliability", {"shared"}},
      {"--rto", {"fixed"}},
      {"--topology", {"fat-tree"}},
      {"--radix", {"8"}, {"--topology", "fat-tree"}},
      {"--oversub", {"3"}, {"--topology", "fat-tree"}},
      {"--loss", {"0.5"}},
      {"--burst-loss", {"0.1,0.2,0.3"}},
      {"--fault-plan", {"f.plan"}},
      {"--deadline-us", {"5"}},
      {"--skew-us", {"5"}},
      {"--layer-us", {"5"}},
      {"--seed", {"9"}},
      {"--seeds", {"3"}},
      {"--jobs", {"4"}, {"--seeds", "2"}},
      {"--pdes-workers", {"3"}},
      {"--cases", {"7"}},
      {"--case-seed", {"6"}},
      {"--predict", {}},
      {"--breakdown", {}},
      {"--critical-path", {}},
      {"--metrics-json", {"m.json"}},
      {"--trace-json", {"t.json"}},
      {"--trace-mask", {"net"}, {"--trace-json", "t.json"}},
      {"--report-json", {"r.json"}},
      {"--slo-report", {"s.json"}},
  };
  for (const Sample& s : samples) {
    if (s.flag == flag) return &s;
  }
  return nullptr;
}

TEST(CliTest, EveryFlagInEveryModeChangesTheRunOrIsRefusedByName) {
  const std::pair<Mode, std::vector<std::string>> bases[] = {
      {Mode::kSingle, {}},
      {Mode::kPdes, {"--pdes-workers", "2"}},
      {Mode::kSeeds, {"--seeds", "2"}},
      {Mode::kWorkload, {"workload", "spec.wl"}},
      {Mode::kCheck, {"check"}},
      {Mode::kReplay, {"check", "--case-seed", "5"}}};
  std::size_t used = 0;
  std::size_t refused = 0;
  for (const auto& [mode, base] : bases) {
    std::string err;
    const auto plain = parse_args(base, err);
    ASSERT_TRUE(plain.has_value()) << err;
    ASSERT_EQ(plain->mode, mode);
    for (const Flag& f : kFlags) {
      const Sample* sample = sample_of(f.name);
      ASSERT_NE(sample, nullptr) << f.name << " has no sample value";
      // The needed flags join the baseline where they apply to the mode.
      std::vector<std::string> args = base;
      args.insert(args.end(), sample->needs.begin(), sample->needs.end());
      std::optional<Options> before = parse_args(args, err);
      if (!before) {
        args = base;
        before = plain;
      }
      args.emplace_back(f.name);
      args.insert(args.end(), sample->value.begin(), sample->value.end());
      const auto after = parse_args(args, err);
      const std::string where = std::string(f.name) + " in " +
                                std::string(kModeNames[static_cast<std::size_t>(mode)].name);
      if (after.has_value()) {
        ++used;
        EXPECT_NE(f.modes & bit(after->mode), 0) << where;
        EXPECT_NE(describe(*after), describe(*before)) << where << " was parsed and ignored";
      } else {
        ++refused;
        EXPECT_EQ(err.rfind(std::string(f.name) + " ", 0), 0u) << where << ": " << err;
      }
    }
  }
  EXPECT_EQ(used + refused, 6 * std::size(kFlags));
  EXPECT_GT(used, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(CliTest, SeedSweepRefusesPredictRatherThanDroppingIt) {
  std::string err;
  EXPECT_FALSE(parse_args({"--seeds", "2", "--reps", "5", "--predict"}, err).has_value());
  EXPECT_EQ(err.rfind("--predict does not apply to --seeds > 1", 0), 0u) << err;
  // One seed is a single run, which --predict describes.
  const auto o = parse_args({"--seeds", "1", "--reps", "5", "--predict"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->mode, Mode::kSingle);
}

TEST(CliTest, ClockOutsideWhatCyclesRepresentIsRefusedNamingTheFlag) {
  std::string err;
  for (const char* bad : {"1e-300", "0.0009", "1000001", "1e7"}) {
    EXPECT_FALSE(parse_args({"--clock", bad, "--nodes", "2", "--reps", "2"}, err).has_value())
        << bad;
    EXPECT_EQ(err.rfind("--clock needs", 0), 0u) << err;
  }
  for (const char* good : {"0.001", "1000000", "33.3"}) {
    EXPECT_TRUE(parse_args({"--clock", good}, err).has_value()) << good << ": " << err;
  }
}

TEST(CliTest, PredictNeedsTwoNodes) {
  std::string err;
  for (const char* location : {"host", "nic"}) {
    EXPECT_FALSE(
        parse_args({"--nodes", "1", "--location", location, "--predict"}, err).has_value());
    EXPECT_EQ(err, "--predict needs --nodes >= 2");
  }
  EXPECT_TRUE(parse_args({"--nodes", "2", "--location", "host", "--predict"}, err).has_value())
      << err;
}

TEST(CliTest, WorkloadAndCheckRefuseTheFlagsTheyWouldIgnore) {
  std::string err;
  EXPECT_FALSE(parse_args({"workload", "smoke.wl", "--nic", "lanai72", "--clock", "10", "--nodes",
                           "4", "--algorithm", "gb", "--deadline-us", "1", "--layer-us", "3",
                           "--skew-us", "5"},
                          err)
                   .has_value());
  for (const std::vector<std::string>& flag :
       {std::vector<std::string>{"--nic", "lanai72"}, {"--clock", "10"}, {"--nodes", "4"},
        {"--algorithm", "gb"}, {"--deadline-us", "1"}, {"--layer-us", "3"}, {"--skew-us", "5"}}) {
    std::vector<std::string> args = {"workload", "smoke.wl"};
    args.insert(args.end(), flag.begin(), flag.end());
    EXPECT_FALSE(parse_args(args, err).has_value()) << flag[0];
    EXPECT_EQ(err.rfind(flag[0] + " does not apply to workload", 0), 0u) << err;
  }
  for (const std::vector<std::string>& flag :
       {std::vector<std::string>{"--nic", "lanai72"}, {"--loss", "0.5"}, {"--nodes", "4"},
        {"--clock", "10"}}) {
    std::vector<std::string> args = {"check", "--cases", "3"};
    args.insert(args.end(), flag.begin(), flag.end());
    EXPECT_FALSE(parse_args(args, err).has_value()) << flag[0];
    EXPECT_EQ(err.rfind(flag[0] + " does not apply to check", 0), 0u) << err;
  }
  // A replayed case ignores the sweep's size and seed.
  EXPECT_FALSE(parse_args({"check", "--case-seed", "5", "--cases", "3"}, err).has_value());
  EXPECT_EQ(err.rfind("--cases does not apply to check --case-seed", 0), 0u) << err;
}

TEST(CliTest, IntegersAreReadWholeWithoutOverflow) {
  std::string err;
  const std::pair<const char*, const char*> bad[] = {
      {"--reps", "4294967297"}, {"--reps", "2.5"},          {"--nodes", "65537"},
      {"--nodes", "1e3"},       {"--jobs", "4294967296"},    {"--cases", "-1"},
      {"--seed", "99999999999999999999999"},                 {"--seed", "18446744073709551616"},
      {"--seed", "-1"},         {"--case-seed", "2.5"},      {"--pdes-workers", "4294967296"}};
  for (const auto& [flag, value] : bad) {
    EXPECT_FALSE(parse_args({flag, value}, err).has_value()) << flag << " " << value;
    EXPECT_EQ(err.rfind(std::string(flag) + " needs an integer", 0), 0u) << err;
  }
  const auto o = parse_args({"--seed", "18446744073709551615", "--reps", "2147483647", "--nodes",
                             "65536"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.seed, 18446744073709551615u);
  EXPECT_EQ(o->params.reps, 2147483647);
  EXPECT_EQ(o->params.nodes, 65536u);
}

TEST(CliTest, DurationsAreExactAndAtMostAnHour) {
  std::string err;
  for (const char* flag : {"--deadline-us", "--layer-us", "--skew-us"}) {
    for (const char* bad : {"1e300", "3600000000.000001", "9223372036854.775807", "-1"}) {
      EXPECT_FALSE(parse_args({flag, bad}, err).has_value()) << flag << " " << bad;
      EXPECT_EQ(err, std::string(flag) + " needs a number of us in [0, 3600000000]");
    }
  }
  const auto o = parse_args({"--deadline-us", "3600000000", "--layer-us", "0.000498",
                             "--skew-us", "1e-7"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->params.spec.deadline.ps(), 3'600'000'000'000'000);
  EXPECT_EQ(o->params.cluster.gm.layer_overhead.ps(), 498);
  EXPECT_EQ(o->params.max_start_skew.ps(), 0);  // 0.1 ps rounds to the nearest picosecond
}

TEST(CliTest, TheLargestDurationsAreUsedAsWritten) {
  std::string err;
  const auto plain = parse_args({"--nodes", "2", "--reps", "2"}, err);
  ASSERT_TRUE(plain.has_value()) << err;
  const coll::ExperimentResult base = coll::run_barrier_experiment(plain->params);

  // An hour's deadline never fires in a run of microseconds.
  const auto deadline =
      parse_args({"--nodes", "2", "--reps", "2", "--deadline-us", "3600000000"}, err);
  ASSERT_TRUE(deadline.has_value()) << err;
  const coll::ExperimentResult d = coll::run_barrier_experiment(deadline->params);
  EXPECT_EQ(d.total, base.total);
  EXPECT_EQ(d.barrier_failures, 0u);

  // An hour of layer cost on every host call slows each barrier by hours.
  const auto layer = parse_args({"--nodes", "2", "--reps", "2", "--layer-us", "3600000000"}, err);
  ASSERT_TRUE(layer.has_value()) << err;
  const coll::ExperimentResult l = coll::run_barrier_experiment(layer->params);
  EXPECT_GT(l.mean_us, 3.6e9);
  EXPECT_EQ(l.barriers_completed, base.barriers_completed);
}

TEST(CliTest, TraceMaskRefusesCategoriesNothingEmits) {
  std::string err;
  for (const char* gone : {"barrier,reliab", "host", "barrier"}) {
    EXPECT_FALSE(parse_args({"--trace-json", "t.json", "--trace-mask", gone}, err).has_value());
    EXPECT_EQ(err, "--trace-mask needs a comma-separated subset of sdma,send,recv,rdma,net,all");
  }
}

TEST(CliTest, ShapeDimensionAndJobsFlagsNeedWhatTheyApplyTo) {
  std::string err;
  EXPECT_FALSE(parse_args({"--jobs", "4"}, err).has_value());  // one run: nothing to shard
  EXPECT_EQ(err.rfind("--jobs needs a sweep", 0), 0u) << err;
  EXPECT_FALSE(parse_args({"workload", "spec.wl", "--jobs", "4"}, err).has_value());
  EXPECT_FALSE(parse_args({"--radix", "8"}, err).has_value());
  EXPECT_EQ(err, "--radix needs --topology fat-tree or leaf-spine");
  EXPECT_FALSE(parse_args({"--oversub", "2", "--topology", "switch"}, err).has_value());
  EXPECT_FALSE(parse_args({"--dim", "3"}, err).has_value());
  EXPECT_EQ(err.rfind("--dim needs an --algorithm with a parameter", 0), 0u) << err;
  EXPECT_TRUE(parse_args({"--dim", "3", "--algorithm", "host-tree"}, err).has_value()) << err;
}

/// The diagnostic after a spec error's line prefix ("...'): why").
std::string spec_refusal(const std::string& text) {
  try {
    (void)wl::parse_workload_spec(text);
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("): ");
    return at == std::string::npos ? what : what.substr(at + 3);
  }
  return {};
}

TEST(CliTest, FlagsAndSpecKeysOfOneKindRefuseTheSameValuesByName) {
  struct Shared {
    const char* flag;
    const char* key;
    bool job;  // a job-class key, else a preamble key
    std::vector<const char*> bad;
  };
  const Shared shared[] = {
      {"--nic", "nic", false, {"lanai9", "LANAI43", "-5"}},
      {"--topology", "topology", false, {"chain", "tree", "2.5"}},
      {"--reliability", "reliability", false, {"maybe", "0"}},
      {"--deadline-us", "deadline-us", true, {"-5", "1e300", "3600000000.000001"}},
      {"--layer-us", "layer-us", true, {"-4", "1e300", "99999999999999999999999"}},
      {"--skew-us", "skew-us", true, {"-40", "1e300", "-0.5"}},
      {"--seed", "seed", false, {"-1", "2.5", "18446744073709551616", "99999999999999999999999"}}};
  for (const Shared& s : shared) {
    for (const char* bad : s.bad) {
      std::string err;
      EXPECT_FALSE(parse_args({s.flag, bad}, err).has_value()) << s.flag << " " << bad;
      EXPECT_EQ(err.rfind(std::string(s.flag) + " ", 0), 0u) << err;
      const std::string line = std::string(s.key) + " " + bad + "\n";
      const std::string text = s.job ? "job j\n  nodes 4\n  " + line : line + "job j\n  nodes 4\n";
      const std::string why = spec_refusal(text);
      EXPECT_FALSE(why.empty()) << "spec accepted " << line;
      EXPECT_NE(why.find(s.key), std::string::npos) << why;
      // The same kind says the same thing about the value.
      EXPECT_EQ(err.substr(err.find(' ')), why.substr(why.find(' '))) << s.key << " " << bad;
    }
  }
  // And both read an accepted value the same way.
  std::string err;
  const auto o = parse_args({"--seed", "18446744073709551615", "--deadline-us", "0.000498"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  const wl::WorkloadSpec spec = wl::parse_workload_spec(
      "seed 18446744073709551615\njob j\n  nodes 4\n  deadline-us 0.000498\n");
  EXPECT_EQ(spec.seed, o->params.seed);
  EXPECT_EQ(spec.classes[0].deadline, o->params.spec.deadline);
}

TEST(CliTest, ARadixBelowThreeIsRefusedAtParseTimeAsTheSpecRefusesIt) {
  // The fabric builder wires no tree of switches with fewer than three ports.
  for (const char* bad : {"1", "2"}) {
    std::string err;
    EXPECT_FALSE(parse_args({"--topology", "fat-tree", "--radix", bad}, err).has_value());
    EXPECT_EQ(err, "--radix needs an integer >= 3");
    EXPECT_EQ(spec_refusal(std::string("topology leaf-spine ") + bad + " 1\njob j\n  nodes 4\n"),
              "leaf-spine radix needs an integer >= 3");
  }
  std::string err;
  EXPECT_TRUE(parse_args({"--topology", "fat-tree", "--radix", "3", "--oversub", "1"}, err))
      << err;
}

}  // namespace
}  // namespace nicbar::cli
