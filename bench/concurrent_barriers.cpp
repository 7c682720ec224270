// §3.4 ablation: multiple concurrent barriers per NIC. K disjoint groups
// share the same 8 nodes through different ports; barrier state lives in the
// per-port send token, so the NIC runs K barriers at once. Reports per-
// barrier latency vs K (the NIC processor is shared, so latency rises), and
// the §3.4 same-NIC loopback optimisation for a two-port intra-node group.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

namespace {

using namespace nicbar;

double run_concurrent(std::size_t nodes, int groups, int reps) {
  host::ClusterParams cp;
  cp.nodes = nodes;
  cp.nic = nic::lanai43();
  host::Cluster cluster(cp);
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  for (int g = 0; g < groups; ++g) {
    const auto port_id = static_cast<nic::PortId>(2 + g);
    std::vector<gm::Endpoint> group;
    for (std::size_t i = 0; i < nodes; ++i) {
      group.push_back(gm::Endpoint{static_cast<net::NodeId>(i), port_id});
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), port_id));
      members.push_back(std::make_unique<coll::BarrierMember>(
          *ports.back(), group, coll::family_spec({coll::Family::kNicPe})));
    }
  }
  for (auto& m : members) {
    cluster.sim().spawn([](coll::BarrierMember& mem, int r) -> sim::Task {
      for (int k = 0; k < r; ++k) co_await mem.run();
    }(*m, reps));
  }
  cluster.sim().run();
  return cluster.sim().now().us() / reps;
}

double run_intra_node(bool loopback, int reps) {
  host::ClusterParams cp;
  cp.nodes = 2;
  cp.nic = nic::lanai43();
  cp.nic.barrier_loopback = loopback;
  host::Cluster cluster(cp);
  // Four endpoints: two ports on each of two nodes.
  std::vector<gm::Endpoint> group{{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  for (const gm::Endpoint& e : group) {
    ports.push_back(cluster.open_port(e.node, e.port));
    members.push_back(std::make_unique<coll::BarrierMember>(
        *ports.back(), group, coll::family_spec({coll::Family::kNicPe})));
  }
  for (auto& m : members) {
    cluster.sim().spawn([](coll::BarrierMember& mem, int r) -> sim::Task {
      for (int k = 0; k < r; ++k) co_await mem.run();
    }(*m, reps));
  }
  cluster.sim().run();
  return cluster.sim().now().us() / reps;
}

}  // namespace

int main() {
  using namespace nicbar;
  bench::print_header("Concurrent barriers per NIC (8 nodes, PE, LANai 4.3)");
  std::printf("%8s %16s\n", "groups", "per-barrier(us)");
  for (int g : {1, 2, 4, 6}) {
    std::printf("%8d %16.2f\n", g, run_concurrent(8, g, 200));
  }
  std::printf("\nexpected: latency grows with concurrent groups (shared NIC processor),\n"
              "but all groups make progress independently (§3.4)\n");

  bench::print_header("Same-NIC loopback optimisation (4 endpoints on 2 nodes)");
  const double off = run_intra_node(false, 300);
  const double on = run_intra_node(true, 300);
  std::printf("loopback off: %.2f us   on: %.2f us   (%.0f%% faster)\n", off, on,
              100.0 * (off - on) / off);
  return 0;
}
