#include "wl/driver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/runner.hpp"

namespace nicbar::wl {
namespace {

// --- Spec parser --------------------------------------------------------------

TEST(WorkloadSpecTest, ParserRoundTrip) {
  const WorkloadSpec s = parse_workload_spec(R"(
    # preamble
    cluster-nodes 32
    nic lanai72
    topology leaf-spine 8 3
    placement overlapping
    arrival poisson 500
    seed 7
    hist-max-us 4000

    job stencil
      count 4
      nodes 8
      iters 200
      mix barrier=0.7 allreduce=0.2 bcast=0.1
      compute-us 50
      imbalance 0.3
      skew-us 10
      layer-us 4

    job pipeline
      nodes 4
      iters 25
      mix fuzzy=1
      fuzzy-chunk-us 5
  )");
  EXPECT_EQ(s.cluster_nodes, 32u);
  EXPECT_EQ(s.cluster.nic.model, nic::lanai72().model);
  EXPECT_EQ(s.cluster.topology, host::Topology::kLeafSpine);
  EXPECT_EQ(s.cluster.fabric_radix, 8u);
  EXPECT_EQ(s.cluster.fabric_oversub, 3u);
  EXPECT_EQ(s.placement, Placement::kOverlapping);
  EXPECT_EQ(s.arrival.kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(s.arrival.interval.us(), 500.0);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.hist_max_us, 4000.0);

  ASSERT_EQ(s.classes.size(), 2u);
  const JobClass& stencil = s.classes[0];
  EXPECT_EQ(stencil.name, "stencil");
  EXPECT_EQ(stencil.count, 4u);
  EXPECT_EQ(stencil.nodes, 8u);
  EXPECT_EQ(stencil.iterations, 200);
  EXPECT_DOUBLE_EQ(stencil.mix.barrier, 0.7);
  EXPECT_DOUBLE_EQ(stencil.mix.allreduce, 0.2);
  EXPECT_DOUBLE_EQ(stencil.mix.broadcast, 0.1);
  EXPECT_DOUBLE_EQ(stencil.mix.fuzzy, 0.0);
  EXPECT_DOUBLE_EQ(stencil.compute_mean.us(), 50.0);
  EXPECT_DOUBLE_EQ(stencil.compute_imbalance, 0.3);
  EXPECT_DOUBLE_EQ(stencil.start_skew.us(), 10.0);
  EXPECT_DOUBLE_EQ(stencil.layer_overhead.us(), 4.0);

  const JobClass& pipeline = s.classes[1];
  EXPECT_EQ(pipeline.count, 1u);  // default
  EXPECT_DOUBLE_EQ(pipeline.mix.fuzzy, 1.0);
  EXPECT_DOUBLE_EQ(pipeline.mix.barrier, 0.0);  // first mix line resets defaults
  EXPECT_TRUE(pipeline.mix.barrier_only());
  EXPECT_EQ(s.total_jobs(), 5u);
}

TEST(WorkloadSpecTest, UnspecifiedMixIsBarrierOnly) {
  const WorkloadSpec s = parse_workload_spec("job solo\n  nodes 4\n");
  ASSERT_EQ(s.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(s.classes[0].mix.barrier, 1.0);
  EXPECT_TRUE(s.classes[0].mix.barrier_only());
}

TEST(WorkloadSpecTest, ClosedLoopArrivalParsesWidthAndThink) {
  const WorkloadSpec s = parse_workload_spec(
      "cluster-nodes 8\narrival closed-loop 2 150\nplacement overlapping\n"
      "job j\n  count 3\n  nodes 4\n");
  EXPECT_EQ(s.arrival.kind, ArrivalKind::kClosedLoop);
  EXPECT_EQ(s.arrival.width, 2u);
  EXPECT_DOUBLE_EQ(s.arrival.think.us(), 150.0);
}

TEST(WorkloadSpecTest, ParserNamesTheOffendingLine) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      (void)parse_workload_spec(text);
      FAIL() << "no error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("frobnicate 3\n", "unknown key");
  expect_error("job j\n  frobnicate 3\n", "unknown job key");
  expect_error("arrival sometimes\n", "arrival must be");
  expect_error("nic lanai99\n", "lanai43 or lanai72");
  expect_error("topology chain\n", "topology must be switch, fat-tree");
  expect_error("topology tree\n", "topology must be switch, fat-tree");
  expect_error("job j\n  mix\n", "at least one");
  expect_error("job j\n  mix barrier\n", "kind=weight");
  expect_error("job j\n  mix scatter=1\n", "unknown collective");
  expect_error("cluster-nodes 8 extra\n", "trailing token");
  expect_error("cluster-nodes 4\njob j\n  nodes 8\n", "wider than the cluster");
  // Placement misfits surface at parse time too.
  expect_error("cluster-nodes 8\njob j\n  count 3\n  nodes 4\n", "disjoint placement");
  // Validation failures are rethrown as runtime_error with the field name.
  expect_error("job j\n  nodes 4\n  layer-us 4\n", "layer-us");
  expect_error("job j\n  nodes 4\n  imbalance 1.5\n", "imbalance");
  expect_error("job j\n  nodes 4\n  location host\n  mix fuzzy=1\n", "NIC-based");
  expect_error("job j\n  nodes 4\n  mix fuzzy=0.5 allreduce=0.5\n", "separate class");
}

// Numbers read as `std::istream >> double` read them: the longest
// [sign] digits [. digits] [e [sign] digits] prefix, which may stop inside a
// word and leave the rest for the next read.
TEST(WorkloadSpecTest, NumbersParseWhatTheStreamParsed) {
  auto compute_us = [](const std::string& value) {
    return parse_workload_spec("job j\n  nodes 4\n  compute-us " + value + "\n")
        .classes[0]
        .compute_mean.us();
  };
  EXPECT_DOUBLE_EQ(compute_us("+12.5"), 12.5);
  EXPECT_DOUBLE_EQ(compute_us(".5"), 0.5);
  EXPECT_DOUBLE_EQ(compute_us("5."), 5.0);
  EXPECT_DOUBLE_EQ(compute_us("2.5E1"), 25.0);
  EXPECT_DOUBLE_EQ(compute_us("007\t"), 7.0);
  EXPECT_DOUBLE_EQ(compute_us("1e-400"), 0.0);  // underflow reads as zero, as before
  // Whitespace between numbers is any of the stream's space characters.
  const WorkloadSpec s = parse_workload_spec("topology fat-tree\t8 \v3\r\njob j\n  nodes 4\n");
  EXPECT_EQ(s.cluster.fabric_radix, 8u);
  EXPECT_EQ(s.cluster.fabric_oversub, 3u);
  // A number may end inside a word; the next read starts where it stopped.
  const WorkloadSpec t =
      parse_workload_spec("arrival closed-loop 4+10\ncluster-nodes 8\njob j\n  nodes 4\n");
  EXPECT_EQ(t.arrival.width, 4u);
  EXPECT_DOUBLE_EQ(t.arrival.think.us(), 10.0);
}

TEST(WorkloadSpecTest, NonFiniteOutOfRangeAndGarbledNumbersAreRejected) {
  auto expect_error = [](const std::string& line, const std::string& needle) {
    const std::string text = "job j\n  nodes 4\n" + line + "\n";
    try {
      (void)parse_workload_spec(text);
      FAIL() << "no error for: " << line;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3 ('" + line + "')"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  for (const char* bad : {"inf", "-inf", "nan", "infinity", "1e400", "-1e400", "1e", "1e+",
                          ".", "-", "+-1", "e5", "abc"}) {
    expect_error(std::string("  compute-us ") + bad, "expected a number for compute-us");
  }
  // Garbage inside a numeric token: the number stops there and the rest is
  // a trailing token (or the next field, which then fails).
  expect_error("  compute-us 12abc", "unexpected trailing token 'abc'");
  expect_error("  compute-us 0x10", "unexpected trailing token 'x10'");
  expect_error("  compute-us 1.5.3", "unexpected trailing token '.3'");
  expect_error("  count 5x", "unexpected trailing token 'x'");
  expect_error("  algorithm gb 4x", "unexpected trailing token 'x'");
  // Mix weights are whole tokens read by the same rule.
  for (const char* bad : {"inf", "nan", "1e400", "0x1p3", "0.5x", "", "1e"}) {
    expect_error(std::string("  mix barrier=") + bad, "bad weight in 'barrier=");
  }
  const CollectiveMix mix =
      parse_workload_spec("job j\n  nodes 4\n  mix barrier=+.5 bcast=5e-1\n").classes[0].mix;
  EXPECT_DOUBLE_EQ(mix.barrier, 0.5);
  EXPECT_DOUBLE_EQ(mix.broadcast, 0.5);
}

TEST(WorkloadSpecTest, ReliabilityKeySelectsTheRetransmissionMode) {
  EXPECT_EQ(parse_workload_spec("reliability shared\njob j\n  nodes 4\n")
                .cluster.nic.barrier_reliability,
            nic::BarrierReliability::kSharedStream);
  EXPECT_EQ(parse_workload_spec("reliability separate\njob j\n  nodes 4\n")
                .cluster.nic.barrier_reliability,
            nic::BarrierReliability::kSeparateAcks);
  EXPECT_THROW((void)parse_workload_spec("reliability maybe\njob j\n  nodes 4\n"),
               std::runtime_error);
}

/// The diagnostic after a spec error's line prefix ("...'): why"); empty
/// when `text` parses.
std::string refusal(const std::string& text) {
  try {
    (void)parse_workload_spec(text);
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("): ");
    return at == std::string::npos ? what : what.substr(at + 3);
  }
  return {};
}

/// The first word of every line print_spec() writes.
std::set<std::string> printed_keys(const WorkloadSpec& s) {
  std::set<std::string> keys;
  std::istringstream in(print_spec(s));
  std::string word;
  for (std::string line; std::getline(in, line);) {
    if (std::istringstream(line) >> word) keys.insert(word);
  }
  return keys;
}

TEST(WorkloadSpecTest, EveryKeyIsReadAsWrittenOrRefusedByName) {
  // Each value slot of each key with a fractional, a negative, an
  // overflowing and an out-of-range value; `accepts` marks the ones its
  // kind takes, which must then survive print -> parse unchanged.
  struct Case {
    const char* line;  // "{}" is the value
    bool job;
    const char* names;  // what the refusal names
    std::array<const char*, 4> values;
    const char* accepts;
  };
  const char* const kInt[] = {"2.5", "-3", "99999999999999999999999", "65537"};
  const Case cases[] = {
      {"cluster-nodes {}", false, "cluster-nodes", {kInt[0], kInt[1], kInt[2], kInt[3]}, "----"},
      {"nic {}", false, "nic", {"2.5", "-3", "1e400", "lanai9"}, "----"},
      {"reliability {}", false, "reliability", {"2.5", "-3", "1e400", "shared2"}, "----"},
      {"nic-slots {}", false, "nic-slots", {"2.5", "-3", "99999999999999999999999", "2147483648"},
       "----"},
      {"topology {}", false, "topology", {"2.5", "-3", "1e400", "chain"}, "----"},
      {"topology fat-tree {} 1", false, "fat-tree radix",
       {"2.5", "-3", "99999999999999999999999", "2"}, "----"},
      {"topology leaf-spine 8 {}", false, "leaf-spine oversubscription",
       {"2.5", "-3", "99999999999999999999999", "0"}, "----"},
      {"placement {}", false, "placement", {"2.5", "-3", "1e400", "scattered"}, "----"},
      {"arrival {}", false, "arrival", {"2.5", "-3", "1e400", "bursty"}, "----"},
      {"arrival fixed {}", false, "fixed gap", {"2.5", "-3", "1e400", "3600000000.000001"},
       "y---"},
      {"arrival poisson {}", false, "poisson mean gap",
       {"2.5", "-3", "1e400", "3600000000.000001"}, "y---"},
      {"arrival closed-loop {} 10", false, "closed-loop width",
       {"2.5", "-3", "99999999999999999999999", "0"}, "----"},
      {"arrival closed-loop 2 {}", false, "closed-loop think time",
       {"2.5", "-3", "1e400", "3600000000.000001"}, "y---"},
      {"seed {}", false, "seed", {"2.5", "-3", "99999999999999999999999", "18446744073709551616"},
       "----"},
      {"hist-max-us {}", false, "hist-max-us", {"2.5", "-3", "1e400", "0"}, "y---"},
      {"count {}", true, "count", {"2.5", "-3", "99999999999999999999999", "0"}, "----"},
      {"nodes {}", true, "nodes", {kInt[0], kInt[1], kInt[2], kInt[3]}, "----"},
      {"iters {}", true, "iters", {"2.5", "-3", "1e10", "0"}, "----"},
      {"mix barrier={}", true, "barrier=", {"0.5", "-3", "1e400", "-0.5"}, "y---"},
      {"compute-us {}", true, "compute-us", {"2.5", "-3", "1e400", "3600000000.000001"},
       "y---"},
      {"imbalance {}", true, "imbalance", {"0.5", "-3", "1e400", "1"}, "y---"},
      {"skew-us {}", true, "skew-us", {"2.5", "-40", "1e400", "3600000000.000001"}, "y---"},
      {"location {}", true, "location", {"2.5", "-3", "1e400", "gpu"}, "----"},
      {"algorithm {}", true, "algorithm", {"2.5", "-3", "1e400", "ring"}, "----"},
      {"algorithm gb {}", true, "gb dimension", {"2.5", "-3", "99999999999999999999999", "65536"},
       "----"},
      {"fuzzy-chunk-us {}", true, "fuzzy-chunk-us",
       {"2.5", "-3", "1e400", "3600000000.000001"}, "y---"},
      {"deadline-us {}", true, "deadline-us", {"2.5", "-5", "1e300", "3600000000.000001"},
       "y---"},
      {"layer-us {}", true, "layer-us", {"2.5", "-4", "1e300", "3600000000.000001"}, "y---"},
      {"slo-us {}", true, "slo-us", {"2.5", "-3", "1e400", "3600000000.000001"}, "y---"},
      {"slo-target {}", true, "slo-target", {"0.5", "-3", "1e400", "1"}, "y---"},
      {"slo-window-us {}", true, "slo-window-us", {"2.5", "-3", "1e400", "3600000000.000001"},
       "y---"},
      {"lifecycle {}", true, "lifecycle", {"2.5", "-3", "1e400", "sometimes"}, "----"},
      {"promote-every {}", true, "promote-every",
       {"2.5", "-3", "99999999999999999999999", "2147483648"}, "----"},
  };

  // The walk covers every key print_spec() can write.
  WorkloadSpec every;
  every.cluster.nic.barrier_slots = 2;
  JobClass managed;
  managed.managed = true;
  JobClass solver;
  solver.mix.allreduce = 0.5;
  solver.layer_overhead = sim::microseconds(4.0);
  solver.slo = sim::microseconds(150.0);
  every.classes = {managed, solver};
  std::set<std::string> walked = {"job"};
  for (const Case& c : cases) {
    const std::string line = c.line;
    walked.insert(line.substr(0, line.find(' ')));
  }
  EXPECT_EQ(walked, printed_keys(every));

  for (const Case& c : cases) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::string line = c.line;
      line.replace(line.find("{}"), 2, c.values[k]);
      const std::string job = "job j\n  nodes 4\n  mix barrier=1 allreduce=1\n  ";
      const std::string text = c.job ? job + line + "\n" : line + "\njob j\n  nodes 4\n";
      const std::string why = refusal(text);
      if (c.accepts[k] == 'y') {
        EXPECT_EQ(why, "") << line;
        if (!why.empty()) continue;
        const WorkloadSpec a = parse_workload_spec(text);
        const std::string printed = print_spec(a);
        EXPECT_TRUE(spec_equal(a, parse_workload_spec(printed))) << line << "\n" << printed;
        EXPECT_EQ(print_spec(parse_workload_spec(printed)), printed) << line;
      } else {
        EXPECT_NE(why.find(c.names), std::string::npos) << line << " -> " << why;
      }
    }
  }
}

TEST(WorkloadSpecTest, IntegerKeysAreReadWholeAndSeedsAtFullWidth) {
  EXPECT_EQ(refusal("job j\n  nodes 4\n  iters 2.5\n"),
            "iters needs an integer in [1, 2147483647]");
  EXPECT_EQ(refusal("job j\n  nodes 4\n  iters 1e10\n"),
            "iters needs an integer in [1, 2147483647]");
  for (const std::uint64_t seed : {18446744073709551615ull, 12345678901234567ull}) {
    const WorkloadSpec s =
        parse_workload_spec("seed " + std::to_string(seed) + "\njob j\n  nodes 4\n");
    EXPECT_EQ(s.seed, seed);
    EXPECT_EQ(parse_workload_spec(print_spec(s)).seed, seed);
  }
}

TEST(WorkloadSpecTest, DurationKeysRefuseNegativeValuesAsTheFlagsDo) {
  for (const char* line : {"deadline-us -5", "skew-us -40", "layer-us -4"}) {
    const std::string key = std::string(line).substr(0, std::string(line).find(' '));
    EXPECT_EQ(refusal(std::string("job j\n  nodes 4\n  mix barrier=1 allreduce=1\n  ") + line +
                      "\n"),
              key + " needs a number of us in [0, 3600000000]");
  }
}

TEST(WorkloadSpecTest, NicCardComesFirstAndItsOverridesAfterWhateverTheOrder) {
  for (const char* preamble : {"reliability shared\nnic-slots 1\nnic lanai72\n",
                               "nic lanai72\nreliability shared\nnic-slots 1\n",
                               "nic-slots 1\nnic lanai72\nreliability shared\n"}) {
    const WorkloadSpec s = parse_workload_spec(std::string(preamble) + "job j\n  nodes 4\n");
    EXPECT_EQ(s.cluster.nic.model, nic::lanai72().model) << preamble;
    EXPECT_EQ(s.cluster.nic.barrier_reliability, nic::BarrierReliability::kSharedStream)
        << preamble;
    EXPECT_EQ(s.cluster.nic.barrier_slots, 1) << preamble;
  }
}

TEST(WorkloadSpecTest, PrintedSpecKeepsEveryDigitItWasGiven) {
  const WorkloadSpec s = parse_workload_spec(
      "hist-max-us 1234567\njob j\n  nodes 4\n  imbalance 0.1234567\n  compute-us 0.000498\n");
  EXPECT_EQ(s.classes[0].compute_mean.ps(), 498);
  const std::string printed = print_spec(s);
  EXPECT_NE(printed.find("hist-max-us 1234567\n"), std::string::npos) << printed;
  EXPECT_NE(printed.find("imbalance 0.1234567\n"), std::string::npos) << printed;
  EXPECT_NE(printed.find("compute-us 0.000498\n"), std::string::npos) << printed;
  const WorkloadSpec back = parse_workload_spec(printed);
  EXPECT_TRUE(spec_equal(s, back));
  EXPECT_EQ(back.hist_max_us, 1234567.0);
  EXPECT_EQ(back.classes[0].compute_imbalance, 0.1234567);
  EXPECT_EQ(back.classes[0].compute_mean.ps(), 498);
}

TEST(WorkloadDriverTest, FuzzyOnFaultyUnreliableFabricIsRejected) {
  // Without retransmission a lost barrier packet would make the fuzzy
  // barrier spin compute chunks forever — the driver must refuse to start
  // rather than livelock.
  WorkloadSpec s = parse_workload_spec("job j\n  nodes 4\n  mix fuzzy=1\n");
  s.cluster.faults.loss.push_back({"", 0.01});
  EXPECT_THROW((void)run_workload(s), std::invalid_argument);
  s.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  EXPECT_EQ(run_workload(s).total_failures, 0u);
}

TEST(WorkloadSpecTest, ValidateRejectsEmptyAndDegenerateSpecs) {
  WorkloadSpec s;
  EXPECT_THROW(validate(s), std::invalid_argument);  // no classes

  s.classes.push_back(JobClass{});
  EXPECT_NO_THROW(validate(s));

  s.classes[0].mix = CollectiveMix{0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(validate(s), std::invalid_argument);  // weightless mix

  s.classes[0].mix = CollectiveMix{};
  s.classes[0].barrier = {coll::Family::kNicGb, 0};
  EXPECT_THROW(validate(s), std::invalid_argument);  // GB without a dimension
}

TEST(WorkloadSpecTest, HostRdmaAlgorithmKeyParsesAndRoundTrips) {
  const WorkloadSpec s = parse_workload_spec(
      "job a\n  nodes 4\n  algorithm host-dissem\n"
      "job b\n  nodes 4\n  algorithm host-tree 3\n");
  ASSERT_EQ(s.classes.size(), 2u);
  EXPECT_EQ(s.classes[0].barrier.family, coll::Family::kHostDissem);
  EXPECT_EQ(s.classes[1].barrier.family, coll::Family::kHostTree);
  EXPECT_EQ(s.classes[1].barrier.dim, 3u);  // host-tree radix
  EXPECT_TRUE(spec_equal(s, parse_workload_spec(print_spec(s))));
}

TEST(WorkloadSpecTest, HostRdmaRejectsMixedManagedAndZeroRadix) {
  WorkloadSpec s;
  s.classes.push_back(JobClass{});
  s.classes[0].barrier.family = coll::Family::kHostDissem;
  EXPECT_NO_THROW(validate(s));

  s.classes[0].mix.allreduce = 0.5;  // reductions need the communicator path
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.classes[0].mix = CollectiveMix{};

  s.classes[0].managed = true;
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.classes[0].managed = false;

  s.classes[0].barrier = {coll::Family::kHostTree, 0};
  EXPECT_THROW(validate(s), std::invalid_argument);
}

TEST(WorkloadSpecTest, LastAlgorithmLineSelectsTheWholeFamily) {
  // A later `algorithm` line replaces the family outright: nothing of the
  // earlier GB choice survives under hier, so the printed spec re-parses to
  // the same class.
  const WorkloadSpec s = parse_workload_spec(
      "job j\n  nodes 4\n  algorithm gb 3\n  algorithm hier 2\n"
      "job k\n  nodes 4\n  algorithm host-tree 3\n  algorithm pe\n"
      "job m\n  nodes 4\n  location host\n  algorithm host-dissem\n  algorithm gb 2\n");
  ASSERT_EQ(s.classes.size(), 3u);
  EXPECT_EQ(s.classes[0].barrier.family, coll::Family::kHier);
  EXPECT_EQ(s.classes[0].barrier.dim, 2u);
  EXPECT_EQ(s.classes[1].barrier.family, coll::Family::kNicPe);
  EXPECT_EQ(s.classes[1].barrier.dim, 2u);  // nothing of host-tree's radix survives
  EXPECT_EQ(s.classes[2].barrier.family, coll::Family::kHostGb);  // `location host` still holds
  EXPECT_TRUE(spec_equal(s, parse_workload_spec(print_spec(s))));
  // hier's degraded managed path is the row's fallback, host PE.
  EXPECT_EQ(coll::family_row(s.classes[0].barrier.family).fallback, coll::Family::kHostPe);
}

TEST(WorkloadDriverTest, PrintedSpecRunsTheReduceTreesTheClassRan) {
  // PE ignores its parameter, so a PE class built at dimension 4 prints and
  // re-parses at the default; its reduce trees use the default too, so the
  // two specs that compare equal also run the same timeline.
  WorkloadSpec s = parse_workload_spec(
      "cluster-nodes 8\njob solver\n  nodes 8\n  iters 10\n  mix barrier=0.5 allreduce=0.5\n");
  s.classes[0].barrier.dim = 4;
  const WorkloadSpec reparsed = parse_workload_spec(print_spec(s));
  EXPECT_TRUE(spec_equal(s, reparsed));
  EXPECT_EQ(run_workload(s).json(), run_workload(reparsed).json());
}

TEST(WorkloadSpecTest, HierOnTheHostIsRefusedWhateverTheOrder) {
  for (const char* body : {"  location host\n  algorithm hier 2\n",
                           "  algorithm hier 2\n  location host\n"}) {
    try {
      (void)parse_workload_spec(std::string("job j\n  nodes 4\n") + body);
      ADD_FAILURE() << "accepted hier on the host:\n" << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("NIC-based location"), std::string::npos) << e.what();
    }
  }
}

TEST(WorkloadDriverTest, HostRdmaClassesCompleteAlongsideNicClasses) {
  const WorkloadSpec s = parse_workload_spec(
      "cluster-nodes 8\n"
      "job nic\n  nodes 4\n  iters 20\n"
      "job rdma\n  nodes 4\n  iters 20\n  algorithm host-dissem\n");
  const Report rep = run_workload(s);
  EXPECT_EQ(rep.total_failures, 0u);
  ASSERT_EQ(rep.jobs.size(), 2u);
  for (const JobReport& jr : rep.jobs) EXPECT_GT(jr.latency.count, 0u);
}

// --- Placement ----------------------------------------------------------------

WorkloadSpec two_jobs(Placement placement, std::size_t cluster, std::size_t width) {
  WorkloadSpec s;
  s.cluster_nodes = cluster;
  s.placement = placement;
  JobClass c;
  c.count = 2;
  c.nodes = width;
  s.classes.push_back(c);
  return s;
}

TEST(PlacementTest, DisjointPacksConsecutiveNodes) {
  const auto sets = place_jobs(two_jobs(Placement::kDisjoint, 8, 4));
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::vector<net::NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(sets[1], (std::vector<net::NodeId>{4, 5, 6, 7}));
  EXPECT_THROW((void)place_jobs(two_jobs(Placement::kDisjoint, 6, 4)), std::invalid_argument);
}

TEST(PlacementTest, StridedInterleavesAcrossTheCluster) {
  const auto sets = place_jobs(two_jobs(Placement::kStrided, 8, 4));
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::vector<net::NodeId>{0, 2, 4, 6}));
  EXPECT_EQ(sets[1], (std::vector<net::NodeId>{1, 3, 5, 7}));
  EXPECT_THROW((void)place_jobs(two_jobs(Placement::kStrided, 6, 4)), std::invalid_argument);
}

TEST(PlacementTest, OverlappingSharesHalfAWindowBetweenConsecutiveJobs) {
  const auto sets = place_jobs(two_jobs(Placement::kOverlapping, 12, 8));
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::vector<net::NodeId>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sets[1], (std::vector<net::NodeId>{4, 5, 6, 7, 8, 9, 10, 11}));
  // Half the window is shared by construction.
  std::size_t shared = 0;
  for (const net::NodeId n : sets[0]) {
    for (const net::NodeId m : sets[1]) {
      if (n == m) ++shared;
    }
  }
  EXPECT_EQ(shared, 4u);
}

TEST(PlacementTest, OverlappingNeverNeedsMoreNodesThanTheCluster) {
  // Over-subscription is the point: 4 jobs x 8 nodes on a 16-node cluster.
  WorkloadSpec s = two_jobs(Placement::kOverlapping, 16, 8);
  s.classes[0].count = 4;
  const auto sets = place_jobs(s);
  ASSERT_EQ(sets.size(), 4u);
  for (const auto& set : sets) {
    ASSERT_EQ(set.size(), 8u);
    for (const net::NodeId n : set) EXPECT_LT(n, 16u);
  }
}

// --- Fig. 5 bit-identical reproduction ---------------------------------------

/// A single-job, barrier-only, no-jitter workload must run the exact member
/// loop of coll::run_barrier_experiment: same awaited operations, same
/// simulated timeline, bit-identical mean. This is the acceptance criterion
/// tying wl:: to the paper's Fig. 5 experiments.
void expect_fig5_identical(const nic::NicConfig& nic_cfg, std::size_t nodes) {
  coll::ExperimentParams p;
  p.nodes = nodes;
  p.reps = 500;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  p.cluster.nic = nic_cfg;
  const coll::ExperimentResult direct = coll::run_barrier_experiment(p);

  WorkloadSpec s;
  s.cluster_nodes = nodes;
  s.cluster.nic = nic_cfg;
  JobClass c;
  c.name = "fig5";
  c.nodes = nodes;
  c.iterations = 500;
  s.classes.push_back(c);

  const Report rep = run_workload(s);
  ASSERT_EQ(rep.jobs.size(), 1u);
  // Exact double equality on purpose: this is the same simulation, not a
  // statistically similar one.
  EXPECT_EQ(rep.jobs[0].experiment_mean_us, direct.mean_us);
  EXPECT_EQ(rep.barriers_completed, direct.barriers_completed);
  EXPECT_EQ(rep.total_failures, 0u);
  EXPECT_EQ(rep.jobs[0].latency.count, nodes * 500u);
}

TEST(WorkloadFig5Test, SingleJobReproducesFig5aLanai43N16) {
  expect_fig5_identical(nic::lanai43(), 16);
}

TEST(WorkloadFig5Test, SingleJobReproducesFig5cLanai72N8) {
  expect_fig5_identical(nic::lanai72(), 8);
}

// --- Concurrency and epoch isolation -----------------------------------------

TEST(WorkloadDriverTest, OverlappingJobsCompleteWithEpochIsolation) {
  // Two 8-wide barrier-only jobs sharing four nodes, released together: the
  // co-located GM ports interleave barrier epochs on the shared NICs. Epoch
  // isolation means every barrier of both jobs still completes and no
  // member ever unblocks early or hangs.
  WorkloadSpec solo = two_jobs(Placement::kOverlapping, 12, 8);
  solo.classes[0].count = 1;
  solo.classes[0].iterations = 50;
  const Report alone = run_workload(solo);
  ASSERT_EQ(alone.jobs.size(), 1u);
  EXPECT_EQ(alone.total_failures, 0u);

  WorkloadSpec s = two_jobs(Placement::kOverlapping, 12, 8);
  s.classes[0].iterations = 50;
  const Report rep = run_workload(s);
  ASSERT_EQ(rep.jobs.size(), 2u);
  EXPECT_EQ(rep.total_failures, 0u);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.latency.count, 8u * 50u);  // every member saw every barrier
    EXPECT_EQ(j.collectives[static_cast<std::size_t>(CollectiveKind::kBarrier)], 50u);
    EXPECT_GT(j.end_us, j.start_us);
  }
  // Both jobs ran all their barriers to completion on the shared fabric.
  EXPECT_EQ(rep.barriers_completed, 2 * alone.barriers_completed);
  // Contention can only slow a job down, never speed it up.
  EXPECT_GE(rep.jobs[0].experiment_mean_us, alone.jobs[0].experiment_mean_us);
  EXPECT_GE(rep.jobs[1].experiment_mean_us, alone.jobs[0].experiment_mean_us);
  EXPECT_GT(rep.max_nic_occupancy, 0.0);
}

TEST(WorkloadDriverTest, ClosedLoopWidthSerialisesJobs) {
  WorkloadSpec s = two_jobs(Placement::kOverlapping, 4, 4);
  s.classes[0].count = 3;
  s.classes[0].iterations = 20;
  s.arrival.kind = ArrivalKind::kClosedLoop;
  s.arrival.width = 1;
  s.arrival.think = sim::microseconds(150.0);

  const Report rep = run_workload(s);
  ASSERT_EQ(rep.jobs.size(), 3u);
  EXPECT_EQ(rep.total_failures, 0u);
  EXPECT_DOUBLE_EQ(rep.jobs[0].arrival_us, 0.0);
  // Width 1: job j+1 is released exactly `think` after job j finishes.
  EXPECT_DOUBLE_EQ(rep.jobs[1].arrival_us, rep.jobs[0].end_us + 150.0);
  EXPECT_DOUBLE_EQ(rep.jobs[2].arrival_us, rep.jobs[1].end_us + 150.0);
  EXPECT_GE(rep.makespan_us, rep.jobs[2].end_us);
}

TEST(WorkloadDriverTest, PoissonArrivalsAreOrderedAndSeeded) {
  WorkloadSpec s = two_jobs(Placement::kOverlapping, 16, 8);
  s.classes[0].count = 4;
  s.classes[0].iterations = 10;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.interval = sim::microseconds(200.0);
  s.seed = 11;

  const Report a = run_workload(s);
  ASSERT_EQ(a.jobs.size(), 4u);
  EXPECT_DOUBLE_EQ(a.jobs[0].arrival_us, 0.0);
  for (std::size_t j = 1; j < a.jobs.size(); ++j) {
    EXPECT_GT(a.jobs[j].arrival_us, a.jobs[j - 1].arrival_us);
  }

  // Same seed => the very same arrival times; a different seed reshuffles
  // the gaps (with overwhelming probability for a continuous draw).
  const Report b = run_workload(s);
  s.seed = 12;
  const Report c = run_workload(s);
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].arrival_us, b.jobs[j].arrival_us);
  }
  EXPECT_NE(a.jobs[1].arrival_us, c.jobs[1].arrival_us);
}

// --- Deterministic replay -----------------------------------------------------

std::string mixed_workload_text() {
  return R"(
    cluster-nodes 16
    placement overlapping
    arrival poisson 300
    seed 5
    hist-max-us 5000
    job stencil
      count 2
      nodes 8
      iters 15
      mix barrier=1
      compute-us 40
      imbalance 0.3
      skew-us 10
    job solver
      count 2
      nodes 4
      iters 10
      mix barrier=0.5 allreduce=0.3 bcast=0.2
      compute-us 20
      layer-us 4
    job pipeline
      nodes 4
      iters 10
      mix fuzzy=1
      compute-us 15
  )";
}

TEST(WorkloadDriverTest, SameSeedReplaysByteIdenticalReports) {
  const WorkloadSpec s = parse_workload_spec(mixed_workload_text());
  Driver d(s);
  const std::string first = d.run().json();
  // Re-running the same Driver and a freshly parsed spec both replay the
  // identical timeline, down to every digit of the JSON document.
  EXPECT_EQ(first, d.run().json());
  EXPECT_EQ(first, Driver(parse_workload_spec(mixed_workload_text())).run().json());
  EXPECT_NE(first.find("\"makespan_us\""), std::string::npos);
}

TEST(WorkloadDriverTest, PercentilesAboveTheHistogramRangeNeverReadInsideIt) {
  // Start skews of up to an hour push most latencies past hist-max-us
  // (20000 us by default), where the histogram keeps no bins. The top
  // percentiles rank among those samples, so they read at least the range's
  // top and at most the largest sample, never just under the range's top.
  const WorkloadSpec s = parse_workload_spec(R"(
cluster-nodes 8
arrival fixed 10
job a
  count 2
  nodes 4
  iters 3
  mix barrier=1 allreduce=1
  skew-us 3600000000
)");
  const Report r = run_workload(s);
  const TailStats& barrier = r.per_kind[static_cast<std::size_t>(CollectiveKind::kBarrier)];
  EXPECT_EQ(barrier.count, 12u);
  for (const TailStats& t : {barrier, r.overall}) {
    EXPECT_GT(t.max_us, s.hist_max_us);
    EXPECT_LT(t.p50_us, s.hist_max_us);
    EXPECT_GE(t.p95_us, s.hist_max_us);
    EXPECT_GE(t.p99_us, t.p95_us);
    EXPECT_LE(t.p99_us, t.max_us);
  }
}

TEST(WorkloadDriverTest, SeedChangesTheTimelineForStochasticSpecs) {
  WorkloadSpec s = parse_workload_spec(mixed_workload_text());
  const std::string base = run_workload(s).json();
  s.seed = 6;
  EXPECT_NE(base, run_workload(s).json());
}

TEST(WorkloadDriverTest, MixedClassesIssueEveryRequestedKind) {
  const Report rep = run_workload(parse_workload_spec(mixed_workload_text()));
  EXPECT_EQ(rep.total_failures, 0u);
  EXPECT_GT(rep.per_kind[static_cast<std::size_t>(CollectiveKind::kBarrier)].count, 0u);
  EXPECT_GT(rep.per_kind[static_cast<std::size_t>(CollectiveKind::kAllreduce)].count, 0u);
  EXPECT_GT(rep.per_kind[static_cast<std::size_t>(CollectiveKind::kBroadcast)].count, 0u);
  EXPECT_GT(rep.per_kind[static_cast<std::size_t>(CollectiveKind::kFuzzyBarrier)].count, 0u);
  EXPECT_GT(rep.reduces_completed, 0u);
  std::uint64_t scheduled = 0;
  for (const JobReport& j : rep.jobs) {
    for (const std::uint64_t n : j.collectives) scheduled += n;
  }
  // Every process of every job times every scheduled collective once.
  EXPECT_EQ(rep.overall.count, [&rep] {
    std::uint64_t per_member = 0;
    for (const JobReport& j : rep.jobs) {
      for (std::size_t k = 0; k < kCollectiveKindCount; ++k) {
        per_member += j.collectives[k] * j.nodes;
      }
    }
    return per_member;
  }());
  EXPECT_EQ(scheduled, 2u * 15u + 2u * 10u + 10u);
}

// --- Substreams ---------------------------------------------------------------

TEST(SubstreamTest, PurposeAndIndexDecorrelateStreams) {
  EXPECT_EQ(substream(1, 1, 0), substream(1, 1, 0));  // pure function
  EXPECT_NE(substream(1, 1, 0), substream(1, 1, 1));
  EXPECT_NE(substream(1, 1, 0), substream(1, 2, 0));
  EXPECT_NE(substream(1, 1, 0), substream(2, 1, 0));
  // Seed 0 with the real purpose tags still yields well-mixed streams.
  EXPECT_NE(substream(0, 1, 0), substream(0, 2, 0));
  EXPECT_NE(substream(0, 1, 0), 0u);
}

}  // namespace
}  // namespace nicbar::wl
