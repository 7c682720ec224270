// Figure 2 / Equations 1-3: the analytic timing model vs the simulator.
//
// Prints the derived per-message phase breakdown (Send, SDMA, Network, Recv,
// RDMA, HRecv), then predicted (Eq. 1/2) vs simulated PE barrier latency for
// both NIC generations, and the predicted improvement (Eq. 3).
#include <cstdio>

#include "common.hpp"
#include "model/timing.hpp"

int main() {
  using namespace nicbar;
  using coll::Family;

  for (const nic::NicConfig& cfg : {nic::lanai43(), nic::lanai72()}) {
    gm::GmConfig gmc;
    net::LinkParams link;
    net::SwitchParams sw;
    const model::PhaseTimes t = model::derive_phases(cfg, gmc, link, sw);

    bench::print_header("Figure 2 timing model: " + cfg.model);
    std::printf("phases (us): Send=%.2f SDMA=%.2f Network=%.2f Recv=%.2f Recv_nicPE=%.2f "
                "RDMA=%.2f HRecv=%.2f\n",
                t.send_us, t.sdma_us, t.network_us, t.recv_us, t.recv_nic_pe_us, t.rdma_us,
                t.hrecv_us);
    std::printf("one-way host message: %.2f us\n", t.host_message_us());

    // One sweep covers every simulated point; larger sizes are model-only.
    coll::SweepPlan plan;
    for (std::size_t n : {2u, 4u, 8u, 16u}) {
      for (const Family f : {Family::kHostPe, Family::kNicPe}) {
        coll::ExperimentParams p = coll::experiment(cfg, n, 200);
        p.spec = coll::family_spec({f});
        plan.add(coll::variant_label(p), p);
      }
    }
    const coll::SweepResult r = bench::run(plan);

    std::printf("%6s %14s %14s %14s %14s %8s\n", "nodes", "Eq1 host", "sim host",
                "Eq2 NIC", "sim NIC", "Eq3");
    std::size_t next = 0;
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
      const double eq1 = model::host_barrier_us(t, n);
      const double eq2 = model::nic_barrier_us(t, n);
      double sim_host = 0, sim_nic = 0;
      if (n <= 16) {
        sim_host = r.cases[next++].result.mean_us;
        sim_nic = r.cases[next++].result.mean_us;
      }
      std::printf("%6zu %14.2f %14.2f %14.2f %14.2f %8.2f\n", n, eq1, sim_host, eq2, sim_nic,
                  model::improvement_factor(t, n));
    }
  }
  std::printf("\nEq.3 predicts improvement grows with node count and NIC speed.\n");
  return 0;
}
