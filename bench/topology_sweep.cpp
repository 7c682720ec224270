// Topology ablation: the paper's Network term is tiny on one switch; this
// quantifies how multi-switch fabrics (longer routes, trunk sharing) stretch
// both barrier variants at 16 nodes. The 7:1 fat-tree of radix-8 switches
// is a switch tree: one uplink per leaf, so every cross-leaf packet shares
// a trunk; the 1:1 fat-tree has full bisection bandwidth. The NIC advantage
// persists because the NIC-resident Recv term, not the wire, dominates
// either way.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nicbar;
  struct Row {
    const char* name;
    host::Topology t;
    std::size_t oversub;
  } rows[] = {{"single switch", host::Topology::kSingleSwitch, 1},
              {"fat-tree (8, 1:1)", host::Topology::kFatTree, 1},
              {"fat-tree (8, 7:1)", host::Topology::kFatTree, 7}};

  coll::SweepPlan plan;
  for (const Row& row : rows) {
    for (const coll::Location loc : {coll::Location::kHost, coll::Location::kNic}) {
      coll::ExperimentParams p = coll::experiment(nic::lanai43(), 16, 300);
      p.spec = coll::spec(loc, nic::BarrierAlgorithm::kPairwiseExchange);
      p.cluster.topology = row.t;
      p.cluster.fabric_radix = 8;
      p.cluster.fabric_oversub = row.oversub;
      plan.add(std::string(row.name) + "/" + coll::variant_label(p), p);
    }
  }
  const coll::SweepResult r = bench::run(plan);

  bench::print_header("Topology sweep: 16-node PE barrier, LANai 4.3 (us)");
  std::printf("%18s %12s %12s %12s\n", "topology", "host", "NIC", "improvement");
  bench::BenchSummary summary("topology_sweep");
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const double host_us = r.cases[2 * i].result.mean_us;
    const double nic_us = r.cases[2 * i + 1].result.mean_us;
    std::printf("%18s %12.2f %12.2f %12.2f\n", rows[i].name, host_us, nic_us,
                host_us / nic_us);
    summary.add(rows[i].name, {{"host_us", host_us},
                               {"nic_us", nic_us},
                               {"improvement", host_us / nic_us}});
  }
  summary.write();
  std::printf("\nexpected: deeper fabrics add Network time to both variants; the NIC\n"
              "advantage persists since Recv processing, not the wire, dominates\n");
  return 0;
}
