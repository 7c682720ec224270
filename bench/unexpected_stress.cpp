// §3.1 worst case: a slow process runs consecutive two-party barriers with
// every other process; the fast peers all fire their barrier messages first,
// so the slow node's NIC must absorb N-1 unexpected messages in its
// per-connection bit records. Verifies the bound (at most one unexpected
// message per remote endpoint — zero bit collisions) and reports the cost.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

namespace {

using namespace nicbar;

sim::Task pair_barrier_proc(coll::BarrierMember& m, int reps) {
  for (int r = 0; r < reps; ++r) co_await m.run();
}

}  // namespace

int main() {
  using namespace nicbar;
  bench::print_header("Unexpected-message stress: consecutive pairwise barriers (§3.1)");
  std::printf("%6s %14s %14s %14s\n", "nodes", "unexpected", "collisions", "total(us)");

  for (std::size_t n : {4u, 8u, 16u}) {
    host::ClusterParams cp;
    cp.nodes = n;
    cp.nic = nic::lanai43();
    host::Cluster cluster(cp);

    // Node 0 is the slow one: it delays before each two-party barrier.
    // Each peer i runs exactly one barrier with node 0 and fires immediately.
    std::vector<std::unique_ptr<gm::Port>> ports;
    std::vector<std::unique_ptr<coll::BarrierMember>> members;
    auto p0 = cluster.open_port(0, 2);

    std::vector<std::unique_ptr<coll::BarrierMember>> node0_members;
    for (net::NodeId i = 1; i < n; ++i) {
      std::vector<gm::Endpoint> pair{{0, 2}, {i, 2}};
      node0_members.push_back(std::make_unique<coll::BarrierMember>(
          *p0, pair, coll::family_spec({coll::Family::kNicPe})));
      ports.push_back(cluster.open_port(i, 2));
      members.push_back(std::make_unique<coll::BarrierMember>(
          *ports.back(), pair, coll::family_spec({coll::Family::kNicPe})));
      cluster.sim().spawn(pair_barrier_proc(*members.back(), 1));
    }
    // The slow node enters its barriers only after everyone has fired.
    cluster.sim().spawn([](sim::Simulator& sim,
                           std::vector<std::unique_ptr<coll::BarrierMember>>* ms)
                            -> sim::Task {
      co_await sim.delay(sim::milliseconds(1.0));
      for (auto& m : *ms) co_await m->run();
    }(cluster.sim(), &node0_members));
    cluster.sim().run();

    const nic::NicStats& s = cluster.nic(0).stats();
    std::printf("%6zu %14llu %14llu %14.2f\n", n,
                static_cast<unsigned long long>(s.unexpected_recorded),
                static_cast<unsigned long long>(s.bit_collisions),
                cluster.sim().now().us());
  }
  std::printf("\nexpected: node 0 records exactly N-1 unexpected messages, zero collisions\n");
  return 0;
}
