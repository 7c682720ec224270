#include "nicbar_cli.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

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
  auto o = parse_args({"--jobs", "4"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->jobs, 4u);

  o = parse_args({"--jobs", "0"}, err);  // 0 = one worker per hardware thread
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
  EXPECT_TRUE(o->workload);
  EXPECT_EQ(o->workload_spec_path, "spec.wl");
  EXPECT_FALSE(o->seed_given);
}

TEST(CliTest, WorkloadComposesWithSweepAndFaultFlags) {
  std::string err;
  const auto o = parse_args({"workload", "spec.wl", "--seeds", "5", "--jobs", "4", "--seed",
                             "9", "--loss", "0.01", "--report-json", "r.json"},
                            err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->workload);
  EXPECT_EQ(o->seeds, 5u);
  EXPECT_EQ(o->jobs, 4u);
  EXPECT_TRUE(o->seed_given);
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
  EXPECT_TRUE(o->check);
  EXPECT_FALSE(o->workload);
  EXPECT_EQ(o->check_cases, 50u);
  EXPECT_FALSE(o->have_case_seed);
}

TEST(CliTest, CheckComposesWithCasesAndCaseSeed) {
  std::string err;
  auto o = parse_args({"check", "--cases", "120", "--seed", "7"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->check_cases, 120u);
  EXPECT_EQ(o->params.seed, 7u);

  o = parse_args({"check", "--case-seed", "12345"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->have_case_seed);
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
  auto o = parse_args({"--trace-json", "t.json", "--trace-mask", "barrier,reliab"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->have_trace_mask);
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kBarrier) |
                               static_cast<std::uint32_t>(sim::TraceCategory::kReliab));

  o = parse_args({"--trace-json=t.json", "--trace-mask=net"}, err);  // = form too
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kNet));

  // Default: everything passes, not flagged as user-given.
  o = parse_args({"--trace-json", "t.json"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_FALSE(o->have_trace_mask);
  EXPECT_EQ(o->trace_mask, static_cast<std::uint32_t>(sim::TraceCategory::kAll));
}

TEST(CliTest, TraceMaskRejectsUnknownNamesWithTheAcceptedList) {
  std::string err;
  EXPECT_FALSE(parse_args({"--trace-json", "t.json", "--trace-mask", "bogus"}, err).has_value());
  EXPECT_NE(err.find("--trace-mask"), std::string::npos);
  EXPECT_NE(err.find("barrier"), std::string::npos);  // names the accepted set
  EXPECT_FALSE(parse_args({"--trace-json", "t.json", "--trace-mask", ""}, err).has_value());
  EXPECT_FALSE(parse_args({"--trace-mask"}, err).has_value());
}

TEST(CliTest, TraceMaskRequiresTraceJson) {
  std::string err;
  EXPECT_FALSE(parse_args({"--trace-mask", "barrier"}, err).has_value());
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
  EXPECT_TRUE(o->workload);
  EXPECT_FALSE(o->check);
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
  EXPECT_TRUE(o->have_burst);
  EXPECT_DOUBLE_EQ(o->burst_enter, 0.01);
  EXPECT_DOUBLE_EQ(o->burst_exit, 0.5);
  EXPECT_DOUBLE_EQ(o->burst_rate, 0.9);
  EXPECT_FALSE(parse_args({"--burst-loss", "0.01,0.5"}, err).has_value());
}

TEST(CliTest, PdesWorkersParses) {
  std::string err;
  const auto o = parse_args({"--pdes-workers", "4"}, err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->pdes_given);
  EXPECT_EQ(o->params.cluster.pdes_partitions, 4u);
  EXPECT_EQ(o->params.cluster.pdes_workers, 4u);

  // Default: serial engine, flag not given.
  const auto d = parse_args({}, err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_FALSE(d->pdes_given);
  EXPECT_EQ(d->params.cluster.pdes_partitions, 1u);
}

TEST(CliTest, PdesWorkersRejectsZeroAndGarbage) {
  std::string err;
  EXPECT_FALSE(parse_args({"--pdes-workers", "0"}, err).has_value());
  EXPECT_NE(err.find("--pdes-workers"), std::string::npos);
  EXPECT_FALSE(parse_args({"--pdes-workers", "lots"}, err).has_value());
  EXPECT_FALSE(parse_args({"--pdes-workers"}, err).has_value());
}

TEST(CliTest, PdesWorkersExcludesSingleLaneCollectors) {
  std::string err;
  EXPECT_FALSE(parse_args({"--pdes-workers", "4", "--breakdown"}, err).has_value());
  EXPECT_NE(err.find("--pdes-workers"), std::string::npos);
  EXPECT_FALSE(parse_args({"--pdes-workers", "4", "--trace-json", "t.json"}, err).has_value());
  // --pdes-workers 1 keeps the serial engine, so the collectors stay legal.
  EXPECT_TRUE(parse_args({"--pdes-workers", "1", "--breakdown"}, err).has_value()) << err;
  // The sharded causal tracer works under PDES.
  EXPECT_TRUE(parse_args({"--pdes-workers", "4", "--critical-path"}, err).has_value()) << err;
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

}  // namespace
}  // namespace nicbar::cli
