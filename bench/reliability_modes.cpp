// §3.3/§4.4 ablation: barrier reliability mechanisms under packet loss.
//
// The paper measured with unreliable barrier packets on a lossless fabric
// and sketched two reliable designs. This bench injects loss on every link
// and compares: kUnreliable (hangs — barriers stop completing), kSharedStream
// (data-stream acks recover), kSeparateAcks (dedicated barrier acks recover).
// On a lossless fabric it also reports the overhead each mechanism adds.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

namespace {

using namespace nicbar;

struct ModeResult {
  std::uint64_t completed = 0;
  std::uint64_t expected = 0;
  double mean_us = 0;
};

ModeResult run_mode(nic::BarrierReliability mode, double loss, int reps) {
  host::ClusterParams cp;
  cp.nodes = 8;
  cp.nic = nic::lanai43();
  cp.nic.barrier_reliability = mode;
  cp.nic.retransmit_timeout = sim::microseconds(400.0);  // snappier recovery
  host::Cluster cluster(cp);
  if (loss > 0) {
    std::uint64_t seed = 7;
    cluster.network().for_each_link([&](net::Link& l) {
      l.set_drop_probability(loss, seed++);
    });
  }
  std::vector<gm::Endpoint> group;
  for (net::NodeId i = 0; i < 8; ++i) group.push_back(gm::Endpoint{i, 2});
  std::vector<std::unique_ptr<gm::Port>> ports;
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  for (net::NodeId i = 0; i < 8; ++i) {
    ports.push_back(cluster.open_port(i, 2));
    members.push_back(std::make_unique<coll::BarrierMember>(
        *ports.back(), group, coll::family_spec({coll::Family::kNicPe})));
  }
  std::vector<sim::SimTime> ends(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    cluster.sim().spawn([](sim::Simulator& s, coll::BarrierMember& mem, int r,
                           sim::SimTime* end) -> sim::Task {
      for (int k = 0; k < r; ++k) co_await mem.run();
      *end = s.now();
    }(cluster.sim(), *members[i], reps, &ends[i]));
  }
  // Bound the run: a hung (unreliable + loss) configuration never drains.
  cluster.sim().run(sim::SimTime{0} + sim::seconds(2.0));

  ModeResult res;
  res.expected = 8ull * static_cast<std::uint64_t>(reps);
  for (net::NodeId i = 0; i < 8; ++i) {
    res.completed += cluster.nic(i).stats().barriers_completed;
  }
  sim::SimTime last{0};
  for (const sim::SimTime& e : ends) {
    if (e > last) last = e;
  }
  res.mean_us = last.us() / reps;  // zero if nothing ever finished
  return res;
}

const char* mode_name(nic::BarrierReliability m) {
  switch (m) {
    case nic::BarrierReliability::kUnreliable: return "unreliable";
    case nic::BarrierReliability::kSharedStream: return "shared-stream";
    case nic::BarrierReliability::kSeparateAcks: return "separate-acks";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace nicbar;
  const auto modes = {nic::BarrierReliability::kUnreliable,
                      nic::BarrierReliability::kSharedStream,
                      nic::BarrierReliability::kSeparateAcks};

  bench::print_header("Barrier reliability modes, lossless fabric (8-node PE, 200 reps)");
  std::printf("%16s %12s %14s\n", "mode", "completed", "mean(us)");
  for (nic::BarrierReliability m : modes) {
    const ModeResult r = run_mode(m, 0.0, 200);
    std::printf("%16s %6llu/%-6llu %14.2f\n", mode_name(m),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.expected), r.mean_us);
  }

  bench::print_header("Barrier reliability modes, 2% loss on every link (8-node PE, 50 reps)");
  std::printf("%16s %12s\n", "mode", "completed");
  for (nic::BarrierReliability m : modes) {
    const ModeResult r = run_mode(m, 0.02, 50);
    std::printf("%16s %6llu/%-6llu%s\n", mode_name(m),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.expected),
                r.completed < r.expected ? "   <- HANGS (lost barrier msg, §3.3)" : "");
  }
  std::printf("\nexpected: unreliable hangs under loss; both reliable modes finish;\n"
              "reliable modes cost a little extra on a lossless fabric (ack traffic)\n");
  return 0;
}
