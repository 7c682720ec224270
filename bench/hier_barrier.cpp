// Hierarchical barrier at scale: four families on one oversubscribed
// fat-tree, N = 64 .. 4096, with the PE/hierarchical crossover reported.
//
// The fabric is the fixed cluster design a site would actually buy for 4096
// hosts: a radix-18 folded Clos at 8:1 leaf oversubscription. That shape
// puts h = 16 hosts under every leaf (power-of-two blocks, so the
// inter-representative exchange never folds) and caps at 18*16*16 = 4608
// hosts on three levels. Against it we run:
//
//   flat NIC-PE       every round crosses the trunk; hop-optimal (log2 N)
//   flat NIC-GB       k-ary tree (fixed dimension 3; the full 1..N-1 sweep
//                     of the paper's methodology is out of wall-clock reach
//                     at 4096 nodes and never changes the ordering here)
//   host-dissem       host-driven dissemination over the rma:: layer
//   hierarchical      leaf-local gather + release, only representatives
//                     cross the core (one kHierarchical token per member)
//
// The interesting regime is *sustained* barriers (reps back to back, the
// paper's own measurement loop): flat PE's cross-fabric traffic accumulates
// queueing on the oversubscribed trunk round after round, while the
// hierarchical family's trunk load is one packet per block per barrier.
// The crossover lands between 512 and 1024 nodes; below it the flat
// algorithm's lower per-hop cost wins, above it the trunk does.
//
// Env knobs (CI trimming): NICBAR_HIER_MAX_NODES caps the grid,
// NICBAR_HIER_REPS overrides the per-case repetition count, and the usual
// NICBAR_JOBS / NICBAR_BENCH_JSON_DIR apply (see common.hpp).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

int main() {
  using namespace nicbar;

  constexpr std::size_t kRadix = 18;
  constexpr std::size_t kOversub = 8;
  constexpr std::size_t kHierDim = 3;  // intra-block tree dimension
  const std::size_t max_nodes = env_or("NICBAR_HIER_MAX_NODES", 4096);
  const int reps = static_cast<int>(env_or("NICBAR_HIER_REPS", 15));

  std::vector<std::size_t> node_counts;
  for (const std::size_t n : {std::size_t{64}, std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}}) {
    if (n <= max_nodes) node_counts.push_back(n);
  }

  auto base = [&](std::size_t n) {
    coll::ExperimentParams p = coll::experiment(nic::lanai43(), n, reps);
    p.cluster.topology = host::Topology::kFatTree;
    p.cluster.fabric_radix = kRadix;
    p.cluster.fabric_oversub = kOversub;
    return p;
  };

  coll::SweepPlan plan;
  for (const std::size_t n : node_counts) {
    // hier_block stays 0: the runner derives one block per leaf switch.
    for (const coll::Family f : {coll::Family::kNicPe, coll::Family::kNicGb,
                                 coll::Family::kHostDissem, coll::Family::kHier}) {
      coll::ExperimentParams p = base(n);
      p.spec = coll::family_spec({f, kHierDim});
      plan.add(coll::variant_label(p), p);
    }
  }
  const coll::SweepResult r = bench::run(plan);

  // Mirror fabric::resolve_shape's leaf split for the header line.
  const std::size_t uplinks = std::max<std::size_t>(1, kRadix / (1 + kOversub));
  const std::size_t hosts_per_leaf = kRadix - uplinks;
  bench::print_header("Hierarchical barrier: radix-18 fat-tree, 8:1 oversubscription, LANai 4.3");
  std::printf("fabric: %zu hosts/leaf, %zu uplinks/leaf; %d consecutive barriers per case\n\n",
              hosts_per_leaf, uplinks, reps);
  std::printf("%6s %12s %12s %12s %12s %10s\n", "nodes", "NIC-PE(us)", "NIC-GB(us)",
              "dissem(us)", "hier(us)", "hier/PE");

  bench::BenchSummary summary("hier_barrier", "nicbar-hier-v1");
  std::size_t crossover_nodes = 0;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const std::size_t n = node_counts[i];
    const double pe_us = r.cases[4 * i + 0].result.mean_us;
    const double gb_us = r.cases[4 * i + 1].result.mean_us;
    const double dissem_us = r.cases[4 * i + 2].result.mean_us;
    const double hier_us = r.cases[4 * i + 3].result.mean_us;
    std::printf("%6zu %12.2f %12.2f %12.2f %12.2f %10.3f\n", n, pe_us, gb_us, dissem_us,
                hier_us, hier_us / pe_us);
    if (crossover_nodes == 0 && hier_us < pe_us) crossover_nodes = n;
    summary.add(bench::row_key("n", n),
                {{"nodes", static_cast<double>(n)},
                 {"nic_pe_us", pe_us},
                 {"nic_gb_us", gb_us},
                 {"host_dissem_us", dissem_us},
                 {"hier_us", hier_us},
                 {"hier_vs_pe_improvement", pe_us / hier_us}});
  }
  summary.add("crossover", {{"crossover_nodes", static_cast<double>(crossover_nodes)}});
  summary.write();

  if (crossover_nodes != 0) {
    std::printf("\ncrossover: the hierarchical family beats flat NIC-PE from %zu nodes up\n"
                "on this fabric (sustained barriers; see EXPERIMENTS.md for the\n"
                "single-shot and non-blocking-fabric caveats).\n",
                crossover_nodes);
  } else {
    std::printf("\ncrossover: not reached on this grid — flat NIC-PE stayed ahead at every\n"
                "measured size (expected when the grid is capped below 1024 nodes).\n");
  }
  return 0;
}
