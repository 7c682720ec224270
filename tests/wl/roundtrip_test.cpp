// Round-trips every checked-in workload spec through parse -> print -> parse:
// the printed form must reach a fixed point and describe the same workload.
// Guards the spec format against asymmetric parser/printer changes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wl/spec.hpp"

#ifndef NICBAR_WORKLOADS_DIR
#error "NICBAR_WORKLOADS_DIR must point at examples/workloads"
#endif

namespace nicbar::wl {
namespace {

std::vector<std::filesystem::path> workload_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(NICBAR_WORKLOADS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".wl") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RoundTripTest, ExampleDirectoryIsNotEmpty) {
  EXPECT_GE(workload_files().size(), 2u);
}

TEST(RoundTripTest, EveryExampleSpecSurvivesParsePrintParse) {
  for (const auto& path : workload_files()) {
    SCOPED_TRACE(path.string());
    const WorkloadSpec original = parse_workload_spec(slurp(path));
    EXPECT_NO_THROW(validate(original));

    const std::string printed = print_spec(original);
    const WorkloadSpec reparsed = parse_workload_spec(printed);
    EXPECT_TRUE(spec_equal(original, reparsed)) << "printed form:\n" << printed;
    // One more cycle must be the identity on text: print is a fixed point.
    EXPECT_EQ(print_spec(reparsed), printed);
  }
}

TEST(RoundTripTest, SubMicrosecondDurationsAndSevenDigitRealsSurvive) {
  WorkloadSpec s;
  s.seed = 18446744073709551615u;
  s.hist_max_us = 1234567.0;
  s.arrival = {ArrivalKind::kClosedLoop, sim::Duration{0}, 3, sim::picoseconds(1)};
  JobClass c;
  c.compute_mean = sim::picoseconds(498);
  c.start_skew = sim::picoseconds(999'999);
  c.deadline = sim::picoseconds(3'599'999'999'999'999);
  c.compute_imbalance = 0.1234567;
  c.mix = {0.7654321, 0.0, 0.1000001, 0.0};
  c.layer_overhead = sim::picoseconds(1);
  c.slo = sim::picoseconds(123'456'789);
  c.slo_target = 0.9999999;
  s.classes.push_back(c);

  const std::string printed = print_spec(s);
  const WorkloadSpec back = parse_workload_spec(printed);
  EXPECT_TRUE(spec_equal(s, back)) << printed;
  EXPECT_EQ(print_spec(back), printed);
  EXPECT_EQ(back.classes[0].compute_mean.ps(), 498);
  EXPECT_EQ(back.classes[0].deadline.ps(), 3'599'999'999'999'999);
  EXPECT_EQ(back.classes[0].mix.barrier, 0.7654321);
  EXPECT_EQ(back.seed, 18446744073709551615u);
}

TEST(RoundTripTest, SpecEqualComparesEveryKeyByValueNotByItsPrintedForm) {
  // Each edit moves one key's value, a number by its last digit or by one
  // picosecond, so spec_equal must compare the fields themselves: a printer
  // that dropped a digit could not hide the change.
  WorkloadSpec base;
  base.cluster.topology = host::Topology::kFatTree;
  base.cluster.nic.barrier_slots = 3;
  base.hist_max_us = 1234567.0;
  base.seed = 12345678901234567u;
  JobClass c;
  c.name = "a";
  c.mix = {0.7654321, 0.0, 0.1000001, 0.0};
  c.compute_mean = sim::picoseconds(498);
  c.compute_imbalance = 0.1234567;
  c.layer_overhead = sim::picoseconds(1);
  c.slo = sim::picoseconds(123'456'789);
  c.slo_target = 0.9999999;
  c.barrier = {coll::Family::kNicGb, 3};
  base.classes.push_back(c);
  JobClass managed;
  managed.name = "m";
  managed.managed = true;
  managed.promote_every = 4;
  base.classes.push_back(managed);
  EXPECT_TRUE(spec_equal(base, base));

  using Edit = void (*)(WorkloadSpec&);
  const std::pair<const char*, Edit> edits[] = {
      {"cluster-nodes", [](WorkloadSpec& s) { ++s.cluster_nodes; }},
      {"nic", [](WorkloadSpec& s) { s.cluster.nic.model = nic::lanai72().model; }},
      {"reliability",
       [](WorkloadSpec& s) {
         s.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
       }},
      {"nic-slots", [](WorkloadSpec& s) { ++s.cluster.nic.barrier_slots; }},
      {"topology", [](WorkloadSpec& s) { s.cluster.topology = host::Topology::kLeafSpine; }},
      {"topology radix", [](WorkloadSpec& s) { ++s.cluster.fabric_radix; }},
      {"topology oversub", [](WorkloadSpec& s) { ++s.cluster.fabric_oversub; }},
      {"placement", [](WorkloadSpec& s) { s.placement = Placement::kStrided; }},
      {"arrival", [](WorkloadSpec& s) { s.arrival.kind = ArrivalKind::kPoisson; }},
      {"arrival gap", [](WorkloadSpec& s) { s.arrival.interval += sim::picoseconds(1); }},
      {"seed", [](WorkloadSpec& s) { ++s.seed; }},
      {"hist-max-us", [](WorkloadSpec& s) { s.hist_max_us = 1234568.0; }},
      {"job name", [](WorkloadSpec& s) { s.classes[0].name.back() = 'b'; }},
      {"count", [](WorkloadSpec& s) { ++s.classes[0].count; }},
      {"nodes", [](WorkloadSpec& s) { ++s.classes[0].nodes; }},
      {"iters", [](WorkloadSpec& s) { ++s.classes[0].iterations; }},
      {"mix", [](WorkloadSpec& s) { s.classes[0].mix.allreduce = 0.1000002; }},
      {"compute-us", [](WorkloadSpec& s) { s.classes[0].compute_mean = sim::picoseconds(499); }},
      {"imbalance", [](WorkloadSpec& s) { s.classes[0].compute_imbalance = 0.1234568; }},
      {"skew-us", [](WorkloadSpec& s) { s.classes[0].start_skew = sim::picoseconds(1); }},
      {"location", [](WorkloadSpec& s) { s.classes[0].barrier.family = coll::Family::kHostGb; }},
      {"algorithm", [](WorkloadSpec& s) { s.classes[0].barrier.family = coll::Family::kNicPe; }},
      {"algorithm dim", [](WorkloadSpec& s) { s.classes[0].barrier.dim = 4; }},
      {"fuzzy-chunk-us", [](WorkloadSpec& s) { s.classes[0].fuzzy_chunk += sim::picoseconds(1); }},
      {"deadline-us", [](WorkloadSpec& s) { s.classes[0].deadline = sim::picoseconds(1); }},
      {"layer-us", [](WorkloadSpec& s) { s.classes[0].layer_overhead = sim::picoseconds(2); }},
      {"slo-us", [](WorkloadSpec& s) { s.classes[0].slo += sim::picoseconds(1); }},
      {"slo-target", [](WorkloadSpec& s) { s.classes[0].slo_target = 0.9999998; }},
      {"slo-window-us", [](WorkloadSpec& s) { s.classes[0].slo_window = sim::picoseconds(1); }},
      {"lifecycle", [](WorkloadSpec& s) { s.classes[1].managed = false; }},
      {"promote-every", [](WorkloadSpec& s) { ++s.classes[1].promote_every; }},
      {"classes", [](WorkloadSpec& s) { s.classes.pop_back(); }},
  };
  for (const auto& [what, edit] : edits) {
    WorkloadSpec other = base;
    edit(other);
    EXPECT_FALSE(spec_equal(base, other)) << what;
    EXPECT_FALSE(spec_equal(other, base)) << what;
  }

  // A value the format does not carry is not compared: a shape under a
  // single switch, a parameter the family lacks, the SLO target of a class
  // without an SLO, the promotion period of an unmanaged class.
  const Edit unseen[] = {
      [](WorkloadSpec& s) {
        s.cluster.topology = host::Topology::kSingleSwitch;
        ++s.cluster.fabric_radix;
      },
      [](WorkloadSpec& s) {
        s.classes[0].barrier.family = coll::Family::kNicPe;
        ++s.classes[0].barrier.dim;
      },
      [](WorkloadSpec& s) {
        s.classes[0].slo = sim::Duration{0};
        s.classes[0].slo_target /= 2;
      },
      [](WorkloadSpec& s) {
        s.classes[1].managed = false;
        ++s.classes[1].promote_every;
      },
  };
  for (const Edit edit : unseen) {
    WorkloadSpec x = base;
    edit(x);
    WorkloadSpec y = x;
    edit(y);  // moves the unseen field a second time
    EXPECT_TRUE(spec_equal(x, y)) << print_spec(x);
  }
}

}  // namespace
}  // namespace nicbar::wl
