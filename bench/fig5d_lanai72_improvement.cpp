// Figure 5(d): factor of improvement vs nodes, LANai 7.2.
// Paper anchor: PE 1.83x at 8 nodes (vs 1.66x on LANai 4.3 — a faster NIC
// processor raises the improvement, the paper's Eq. 3 prediction).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nicbar;
  bench::print_header("Figure 5(d): factor of improvement, LANai 7.2");
  std::printf("%6s %12s %12s\n", "nodes", "PE", "GB");
  const std::vector<std::size_t> nodes{2, 4, 8};
  const std::vector<bench::FourWay> rows = bench::measure_grid(nic::lanai72(), nodes);
  bench::BenchSummary summary("fig5d");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bench::FourWay& f = rows[i];
    std::printf("%6zu %12.2f %12.2f\n", nodes[i], f.host_pe / f.nic_pe, f.host_gb / f.nic_gb);
    summary.add(bench::row_key("n", nodes[i]),
                {{"pe_improvement", f.host_pe / f.nic_pe},
                 {"gb_improvement", f.host_gb / f.nic_gb}});
  }

  // The headline cross-card comparison.
  const bench::FourWay f43 = bench::measure_all(nic::lanai43(), 8);
  const bench::FourWay f72 = bench::measure_all(nic::lanai72(), 8);
  std::printf("\n8-node PE improvement: LANai 4.3 %.2fx -> LANai 7.2 %.2fx (paper: 1.66 -> 1.83)\n",
              f43.host_pe / f43.nic_pe, f72.host_pe / f72.nic_pe);
  summary.add("crosscard-n8", {{"lanai43_pe_improvement", f43.host_pe / f43.nic_pe},
                               {"lanai72_pe_improvement", f72.host_pe / f72.nic_pe}});
  summary.write();
  return 0;
}
