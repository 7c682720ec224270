// Scalability extension (§8: "scalable fine-grained parallel computation"):
// PE barrier latency up to 1024 nodes on a tree of 16-port switches (the
// fat-tree with 15:1 oversubscription: 15 hosts and one uplink per leaf),
// NIC vs host. log2(N) growth means the NIC advantage compounds with size.
// The whole (node-count x location) grid is one declarative sweep — the
// largest runs dominate wall-clock, so NICBAR_JOBS pays off most here.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace nicbar;
  using coll::Location;
  using nic::BarrierAlgorithm;

  const std::vector<std::size_t> node_counts{16, 32, 64, 128, 256, 512, 1024};

  coll::SweepPlan plan;
  for (const std::size_t n : node_counts) {
    for (const Location loc : {Location::kHost, Location::kNic}) {
      coll::ExperimentParams p = coll::experiment(nic::lanai43(), n, n >= 256 ? 20 : 100);
      p.cluster.topology = host::Topology::kFatTree;
      p.cluster.fabric_radix = 16;
      p.cluster.fabric_oversub = 15;
      p.spec = coll::spec(loc, BarrierAlgorithm::kPairwiseExchange);
      plan.add(coll::variant_label(p), p);
    }
  }
  const coll::SweepResult r = bench::run(plan);

  bench::print_header("Scalability: PE barrier on a 16-port switch tree, LANai 4.3");
  std::printf("%6s %12s %12s %12s\n", "nodes", "host(us)", "NIC(us)", "improvement");
  bench::BenchSummary summary("scalability_sweep");
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const double host_us = r.cases[2 * i].result.mean_us;
    const double nic_us = r.cases[2 * i + 1].result.mean_us;
    std::printf("%6zu %12.2f %12.2f %12.2f\n", node_counts[i], host_us, nic_us,
                host_us / nic_us);
    summary.add(bench::row_key("n", node_counts[i]),
                {{"nodes", static_cast<double>(node_counts[i])},
                 {"host_us", host_us},
                 {"nic_us", nic_us},
                 {"improvement", host_us / nic_us}});
  }
  summary.write();
  std::printf(
      "\nexpected: both grow ~log2(N); improvement keeps rising with N (Eq. 3).\n"
      "note: the switch tree has constant bisection bandwidth, so at >=512\n"
      "nodes trunk-link contention (not log2 N) starts to dominate both\n"
      "variants — visible as a flattening/dip in the improvement column.\n");
  return 0;
}
