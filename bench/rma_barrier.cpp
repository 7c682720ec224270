// Host-RDMA barriers (rma:: dissemination / tree-put) vs the NIC firmware
// families, LANai 4.3, same axes as Figure 5(a). The study asks where the
// paper's NIC-resident barrier actually earns its keep once the host can
// drive one-sided puts itself: the host-RDMA algorithms pay a PCI DMA + GM
// round per flag write but no host recv interrupt, so they land between
// host-PE message loops and the NIC firmware.
//
// The NIC-PE column re-runs the exact Fig. 5(a) grid configuration and is
// additionally re-measured through the single-case path; the two must agree
// to the last bit (determinism contract), reported as the exact_match
// metric and enforced by the exit code.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace nicbar;
  using coll::RdmaAlgorithm;
  bench::print_header("Host-RDMA barriers vs NIC firmware, LANai 4.3 (us)");
  std::printf("%6s %10s %10s %12s %10s %12s\n", "nodes", "NIC-PE", "NIC-GB", "host-dissem",
              "host-tree", "exact_match");

  const nic::NicConfig cfg = nic::lanai43();
  const std::vector<std::size_t> nodes{2, 4, 8, 16};

  // NIC families through the very grid path fig5a uses.
  const std::vector<bench::FourWay> nic_rows = bench::measure_grid(cfg, nodes);

  // Both host-RDMA families as one sweep spanning the grid.
  coll::SweepPlan plan;
  for (const std::size_t n : nodes) {
    for (const RdmaAlgorithm alg : {RdmaAlgorithm::kDissemination, RdmaAlgorithm::kTreePut}) {
      coll::ExperimentParams p = coll::experiment(cfg, n, 500);
      p.spec = coll::rdma_spec(alg, /*radix=*/2);
      plan.add(coll::variant_label(p), p);
    }
  }
  const coll::SweepResult rdma = bench::run(plan);

  bench::BenchSummary summary("rma_barrier", "nicbar-rma-v1");
  bool all_exact = true;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double nic_pe = nic_rows[i].nic_pe;
    const double nic_gb = nic_rows[i].nic_gb;
    const double dissem = rdma.cases[2 * i + 0].result.mean_us;
    const double tree = rdma.cases[2 * i + 1].result.mean_us;
    // Contention-free NIC-PE must be bit-identical between the fig5a grid
    // and an independently built single-case plan.
    const double pe_again = bench::measure(cfg, nodes[i], coll::Location::kNic,
                                           nic::BarrierAlgorithm::kPairwiseExchange);
    const bool exact = pe_again == nic_pe;
    all_exact = all_exact && exact;
    std::printf("%6zu %10.2f %10.2f %12.2f %10.2f %12s\n", nodes[i], nic_pe, nic_gb, dissem,
                tree, exact ? "yes" : "NO");
    summary.add(bench::row_key("n", nodes[i]), {{"nic_pe_us", nic_pe},
                                                {"nic_gb_us", nic_gb},
                                                {"host_dissem_us", dissem},
                                                {"host_tree_us", tree},
                                                {"exact_match", exact ? 1.0 : 0.0}});
  }
  std::printf("\ncrossover: host-RDMA beats the NIC families only where the flag-wait\n"
              "round count stays flat while the firmware pays per-member work; see\n"
              "EXPERIMENTS.md for the paper-vs-measured discussion.\n");
  summary.write();
  return all_exact ? 0 : 1;
}
