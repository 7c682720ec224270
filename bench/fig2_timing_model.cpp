// Figure 2 / Equations 1-3: the analytic timing model vs the simulator.
//
// For each NIC generation: Eq. 1 (host-PE) and Eq. 2 (NIC-PE) at N = 16 in
// the paper's form, with the named terms they omit; then per group size the
// paper's form, the exact closed form (paper form + omitted terms, what the
// oracle sums) and the simulated latency, and Eq. 3's improvement from the
// exact totals. N = 32 and 64 are model-only.
#include <cstdio>

#include "common.hpp"
#include "model/timing.hpp"

int main() {
  using namespace nicbar;
  using coll::Family;
  const gm::GmConfig gmc;
  const net::LinkParams link;
  const net::SwitchParams sw;
  auto form = [](Family f, std::size_t n) { return model::form(coll::family_row(f).spec, n); };

  for (const nic::NicConfig& cfg : {nic::lanai43(), nic::lanai72()}) {
    const model::Inputs in{cfg, gmc, link, sw};

    bench::print_header("Figure 2 timing model: " + cfg.model);
    for (const Family f : {Family::kHostPe, Family::kNicPe}) {
      std::printf("%s at N = 16:\n%s", std::string(coll::family_row(f).header).c_str(),
                  model::explain(form(f, 16), in).c_str());
    }

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

    std::printf("%6s %3s %10s %10s %10s %10s %10s %10s %6s\n", "nodes", "R", "Eq1 host",
                "exact", "sim host", "Eq2 NIC", "exact", "sim NIC", "Eq3");
    std::size_t next = 0;
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
      const model::Form host = form(Family::kHostPe, n);
      const model::Sum eq1 = model::sum(host, in);
      const model::Sum eq2 = model::sum(form(Family::kNicPe, n), in);
      char sim_host[16] = "-", sim_nic[16] = "-";
      if (n <= 16) {
        std::snprintf(sim_host, sizeof sim_host, "%.2f", r.cases[next++].result.mean_us);
        std::snprintf(sim_nic, sizeof sim_nic, "%.2f", r.cases[next++].result.mean_us);
      }
      std::printf("%6zu %3zu %10.2f %10.2f %10s %10.2f %10.2f %10s %6.2f\n", n, host.rounds,
                  eq1.paper.us(), eq1.exact().us(), sim_host, eq2.paper.us(), eq2.exact().us(),
                  sim_nic, eq1.exact().us() / eq2.exact().us());
    }
  }
  std::printf("\nEq.3 predicts improvement grows with node count and NIC speed.\n");
  return 0;
}
