// Figure 5(c): barrier latency vs nodes, LANai 7.2 (66 MHz), 8-port switch.
// Paper anchors: 8-node NIC-PE = 49.25us vs host-PE = 90.24us.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nicbar;
  bench::print_header("Figure 5(c): barrier latency, LANai 7.2 (us)");
  std::printf("%6s %10s %10s %10s %10s\n", "nodes", "NIC-PE", "NIC-GB", "host-PE", "host-GB");
  const std::vector<std::size_t> nodes{2, 4, 8};
  const std::vector<bench::FourWay> rows = bench::measure_grid(nic::lanai72(), nodes);
  bench::BenchSummary summary("fig5c");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bench::FourWay& f = rows[i];
    std::printf("%6zu %10.2f %10.2f %10.2f %10.2f\n", nodes[i], f.nic_pe, f.nic_gb, f.host_pe,
                f.host_gb);
    summary.add(bench::row_key("n", nodes[i]),
                {{"nic_pe_us", f.nic_pe},
                 {"nic_gb_us", f.nic_gb},
                 {"host_pe_us", f.host_pe},
                 {"host_gb_us", f.host_gb}});
  }
  std::printf("\npaper (8 nodes): NIC-PE 49.25, host-PE 90.24\n");
  summary.write();
  return 0;
}
