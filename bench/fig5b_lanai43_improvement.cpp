// Figure 5(b): factor of improvement (host/NIC) vs nodes, LANai 4.3.
// Paper anchors: PE 1.78x and GB 1.46x at 16 nodes; PE 1.66x at 8 nodes;
// GB < 1 at 2 nodes (NIC-GB loses there).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nicbar;
  bench::print_header("Figure 5(b): factor of improvement, LANai 4.3");
  std::printf("%6s %12s %12s\n", "nodes", "PE", "GB");
  const std::vector<std::size_t> nodes{2, 4, 8, 16};
  const std::vector<bench::FourWay> rows = bench::measure_grid(nic::lanai43(), nodes);
  bench::BenchSummary summary("fig5b");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bench::FourWay& f = rows[i];
    std::printf("%6zu %12.2f %12.2f\n", nodes[i], f.host_pe / f.nic_pe, f.host_gb / f.nic_gb);
    summary.add(bench::row_key("n", nodes[i]),
                {{"pe_improvement", f.host_pe / f.nic_pe},
                 {"gb_improvement", f.host_gb / f.nic_gb}});
  }
  std::printf("\npaper: PE 1.78 / GB 1.46 at 16 nodes; PE 1.66 at 8; GB < 1 at 2 nodes\n");
  summary.write();
  return 0;
}
