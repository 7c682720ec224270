// §1/§8 ablation: "This factor of improvement is expected to increase ...
// with the speed of the NIC processor." Sweeps the NIC clock from the
// paper's 33 MHz LANai 4.3 through 66 MHz LANai 7.2 up to a hypothetical
// 200 MHz part (the real LANai 9 reached 132 MHz).
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace nicbar;
  using coll::Family;

  const std::vector<double> clocks{33.0, 50.0, 66.0, 100.0, 132.0, 200.0};

  coll::SweepPlan plan;
  for (const double mhz : clocks) {
    for (const Family f : {Family::kHostPe, Family::kNicPe}) {
      nic::NicConfig cfg = nic::lanai43();
      cfg.clock_mhz = mhz;
      coll::ExperimentParams p = coll::experiment(cfg, 8);
      p.spec = coll::family_spec({f});
      plan.add(coll::variant_label(p) + "@" + std::to_string(static_cast<int>(mhz)), p);
    }
  }
  const coll::SweepResult r = bench::run(plan);

  bench::print_header("NIC clock sweep, 8-node PE barrier");
  std::printf("%10s %12s %12s %12s\n", "clock_mhz", "host(us)", "NIC(us)", "improvement");
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    const double host_us = r.cases[2 * i].result.mean_us;
    const double nic_us = r.cases[2 * i + 1].result.mean_us;
    std::printf("%10.0f %12.2f %12.2f %12.2f\n", clocks[i], host_us, nic_us, host_us / nic_us);
  }
  std::printf("\nexpected: improvement rises with NIC clock (paper: 1.66 @33 -> 1.83 @66)\n");
  return 0;
}
