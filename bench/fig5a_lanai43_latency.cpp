// Figure 5(a): barrier latency vs nodes, LANai 4.3 (33 MHz), 16-port switch.
// Four series: NIC-based and host-based, PE and GB (GB at best dimension).
//
// Paper anchors: 16-node NIC-PE = 102.14us, NIC-GB = 152.27us; host-PE is
// 1.78x NIC-PE (~182us), host-GB 1.46x NIC-GB (~222us); NIC-GB loses to
// host-GB at N=2 only.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nicbar;
  bench::print_header("Figure 5(a): barrier latency, LANai 4.3 (us)");
  std::printf("%6s %10s %10s %10s %10s\n", "nodes", "NIC-PE", "NIC-GB", "host-PE", "host-GB");
  const std::vector<std::size_t> nodes{2, 4, 8, 16};
  const std::vector<bench::FourWay> rows = bench::measure_grid(nic::lanai43(), nodes);
  bench::BenchSummary summary("fig5a");
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
  std::printf("\npaper (16 nodes): NIC-PE 102.14, NIC-GB 152.27, host-PE ~182, host-GB ~222\n");
  summary.write();
  return 0;
}
