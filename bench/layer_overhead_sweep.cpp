// Eq. 3 ablation: "as the host send overhead increases, say from the
// addition of another programming layer such as MPI, the factor of
// improvement will increase" (§2.2). Sweeps the per-call layer overhead
// (0 = raw GM, a few us = an MPI-like layer) and reports the measured
// improvement factor for the 8- and 16-node PE barrier.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace nicbar;
  using coll::Family;

  const std::vector<double> layers{0.0, 2.0, 5.0, 10.0, 15.0, 20.0};

  coll::SweepPlan plan;
  for (const double layer : layers) {
    for (const std::size_t nodes : {std::size_t{16}, std::size_t{8}}) {
      for (const Family f : {Family::kHostPe, Family::kNicPe}) {
        coll::ExperimentParams p = coll::experiment(nic::lanai43(), nodes);
        p.cluster.gm.layer_overhead = sim::microseconds(layer);
        p.spec = coll::family_spec({f});
        plan.add(coll::variant_label(p) + "+l" + std::to_string(layer), p);
      }
    }
  }
  const coll::SweepResult r = bench::run(plan);

  bench::print_header("Layer-overhead sweep (MPI-like layering), LANai 4.3, PE");
  std::printf("%14s %12s %12s %12s %12s\n", "layer_us/call", "host16(us)", "NIC16(us)",
              "improve16", "improve8");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const double host16 = r.cases[4 * i + 0].result.mean_us;
    const double nic16 = r.cases[4 * i + 1].result.mean_us;
    const double host8 = r.cases[4 * i + 2].result.mean_us;
    const double nic8 = r.cases[4 * i + 3].result.mean_us;
    std::printf("%14.1f %12.2f %12.2f %12.2f %12.2f\n", layers[i], host16, nic16,
                host16 / nic16, host8 / nic8);
  }
  std::printf("\nexpected: improvement rises monotonically with layer overhead (Eq. 3)\n");
  return 0;
}
