// §6 methodology: GB tree-dimension sweep. The paper ran every dimension
// from 1 to N-1 and reported the minimum; this bench prints the whole curve
// for NIC-based and host-based GB so the optimum is visible. The full
// (node-count x dimension x location) grid is one declarative sweep.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace nicbar;
  using coll::Family;

  const nic::NicConfig cfg = nic::lanai43();
  const std::vector<std::size_t> node_counts{8, 16};

  coll::SweepPlan plan;
  for (const std::size_t n : node_counts) {
    for (std::size_t dim = 1; dim < n; ++dim) {
      for (const Family f : {Family::kNicGb, Family::kHostGb}) {
        coll::ExperimentParams p = coll::experiment(cfg, n);
        p.spec = coll::family_spec({f, dim});
        plan.add(coll::variant_label(p) + "-d" + std::to_string(dim), p);
      }
    }
  }
  const coll::SweepResult r = bench::run(plan);

  std::size_t next = 0;
  for (const std::size_t n : node_counts) {
    bench::print_header("GB dimension sweep, LANai 4.3, " + std::to_string(n) + " nodes (us)");
    std::printf("%6s %12s %12s\n", "dim", "NIC-GB", "host-GB");
    std::size_t best_nic_dim = 1, best_host_dim = 1;
    double best_nic = 1e18, best_host = 1e18;
    for (std::size_t dim = 1; dim < n; ++dim) {
      const double nic_us = r.cases[next++].result.mean_us;
      const double host_us = r.cases[next++].result.mean_us;
      std::printf("%6zu %12.2f %12.2f\n", dim, nic_us, host_us);
      if (nic_us < best_nic) { best_nic = nic_us; best_nic_dim = dim; }
      if (host_us < best_host) { best_host = host_us; best_host_dim = dim; }
    }
    std::printf("best: NIC-GB dim=%zu (%.2fus), host-GB dim=%zu (%.2fus)\n", best_nic_dim,
                best_nic, best_host_dim, best_host);
  }
  return 0;
}
