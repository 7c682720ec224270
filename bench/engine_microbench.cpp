// Wall-clock performance of the simulation engine itself (google-benchmark):
// event throughput, coroutine switching, the PDES window barrier, the NIC
// connection lookup, barrier-member set-up, workload-spec set-up, and
// end-to-end barrier simulation rate. These are the only benches that
// measure real time, not simulated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "coll/runner.hpp"
#include "coll/sweep.hpp"
#include "host/cluster.hpp"
#include "nic/connection_table.hpp"
#include "sim/exec.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "wl/driver.hpp"

namespace {

using namespace nicbar;

// Raw EventQueue hot path: schedule a batch, then drain. No simulator, no
// coroutines — isolates the heap + callable-storage cost.
void BM_QueueScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.schedule(sim::SimTime{(i * 7919) % 1000}, [&sink] { ++sink; });
    }
    sim::SimTime at;
    while (!q.empty()) q.pop(at)();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueueScheduleDrain)->Arg(1000)->Arg(100000);

// The reliability-timer pattern: nearly every scheduled event is cancelled
// before it fires (a retransmission timer cancelled by its ack) while a
// steady trickle of live events drains. Dominated by cancel() bookkeeping.
void BM_QueueScheduleCancelChurn(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    sim::SimTime at;
    for (int i = 0; i < n; ++i) {
      const sim::EventId timer = q.schedule(sim::SimTime{i + 1000}, [&sink] { ++sink; });
      q.schedule(sim::SimTime{i}, [&sink] { ++sink; });
      q.cancel(timer);  // the "ack" arrives before the timer fires
      q.pop(at)();
    }
    while (!q.empty()) q.pop(at)();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueueScheduleCancelChurn)->Arg(100000);

// The packet path: a NIC-PE barrier between the two NICs of a 2-node
// cluster, posted straight to the firmware (no host processes, and a port
// with no event queue, so the completion DMA is the last stage). Each side
// sends one barrier packet SEND -> link -> switch -> link -> RECV ->
// firmware; items are packets, and `events_per_packet` is the engine's work
// per packet.
void BM_PacketPath(benchmark::State& state) {
  host::ClusterParams cp;
  cp.nodes = 2;
  host::Cluster cluster(cp);
  constexpr nic::PortId kPort = 2;
  for (net::NodeId n = 0; n < 2; ++n) cluster.nic(n).open_port(kPort, nullptr);
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    for (net::NodeId n = 0; n < 2; ++n) {
      nic::BarrierToken token;
      token.src_port = kPort;
      token.epoch = epoch;
      token.peers = {nic::Endpoint{static_cast<net::NodeId>(1 - n), kPort}};
      cluster.nic(n).post_barrier_token(std::move(token));
    }
    cluster.sim().run();
    ++epoch;
  }
  benchmark::DoNotOptimize(cluster.nic(1).stats().barrier_packets_received);
  const auto packets = static_cast<double>(state.iterations() * 2);
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["events_per_packet"] =
      packets > 0 ? static_cast<double>(cluster.sim().events_executed()) / packets : 0.0;
}
BENCHMARK(BM_PacketPath);

void BM_EventScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const auto n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(sim::nanoseconds(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduling)->Arg(1000)->Arg(100000);

sim::Task ping(sim::Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(sim::nanoseconds(1));
}

void BM_CoroutineSwitches(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(ping(sim, static_cast<int>(state.range(0))));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineSwitches)->Arg(1000)->Arg(100000);

void BM_MailboxThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Mailbox<int> mb(sim);
    const int n = static_cast<int>(state.range(0));
    sim.spawn([](sim::Mailbox<int>& box, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) benchmark::DoNotOptimize(co_await box.recv());
    }(mb, n));
    for (int i = 0; i < n; ++i) mb.send(i);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MailboxThroughput)->Arg(10000);

// The partition-boundary fast path: a PDES window barrier drains every
// cross-partition channel into the destination lane's queue in one
// schedule_batch call. Modeled here exactly as PartitionedSimulator does it —
// a lane queue already holding `heap` pending events absorbs a `batch`-sized
// channel drain, then the window runs dry. Compare _Batch against _Single
// (the same arrivals scheduled one at a time) to see the bottom-up heap
// rebuild pay off when batch >= heap.
void BM_PartitionBoundaryDrain(benchmark::State& state, bool batched) {
  const auto heap = static_cast<int>(state.range(0));
  const auto batch = static_cast<int>(state.range(1));
  std::uint64_t sink = 0;
  std::vector<sim::EventQueue::BatchItem> channel;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < heap; ++i) {
      q.schedule(sim::SimTime{(i * 7919) % 1000 + 1000}, [&sink] { ++sink; });
    }
    channel.clear();
    for (int i = 0; i < batch; ++i) {
      // Keyed like a real link delivery: k1 = serialisation-finish ps,
      // k2 = (link uid << 32) | per-link seq.
      sim::EventQueue::BatchItem item;
      item.at = sim::SimTime{(i * 4391) % 1000 + 1000};
      item.key = sim::EventKey{static_cast<std::uint64_t>(item.at.ps()),
                               (std::uint64_t{7} << 32) | static_cast<std::uint64_t>(i)};
      item.action = [&sink] { ++sink; };
      channel.push_back(std::move(item));
    }
    if (batched) {
      q.schedule_batch(channel);
    } else {
      for (auto& item : channel) q.schedule_keyed(item.at, item.key, std::move(item.action));
    }
    sim::SimTime at;
    while (!q.empty()) q.pop(at)();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * (state.range(0) + state.range(1)));
}
void BM_PartitionBoundaryDrain_Batch(benchmark::State& state) {
  BM_PartitionBoundaryDrain(state, true);
}
void BM_PartitionBoundaryDrain_Single(benchmark::State& state) {
  BM_PartitionBoundaryDrain(state, false);
}
BENCHMARK(BM_PartitionBoundaryDrain_Batch)->Args({1000, 10000})->Args({10000, 1000});
BENCHMARK(BM_PartitionBoundaryDrain_Single)->Args({1000, 10000})->Args({10000, 1000});

// Frame-arena recycling under spawn churn: waves of short-lived coroutines
// whose frames all land in the same size class, so after the first wave
// every allocation is a freelist pop. This is the serial-core win the PDES
// issue pins: before the arena, every spawn was a malloc/free round trip.
void BM_FrameArenaSpawnChurn(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int wave = 0; wave < 10; ++wave) {
      for (int i = 0; i < n; ++i) sim.spawn(ping(sim, 1));
      sim.run();
    }
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10 * state.range(0));
}
BENCHMARK(BM_FrameArenaSpawnChurn)->Arg(1000);

// One PDES window barrier with no simulation behind it: a LanePool round of
// 2 workers x 4 lanes, each lane busy for range(0) ns. With 0 ns this is the
// pure hand-off cost (publish the round, wake or release the helper, wait
// for it); at 5000 ns it is the cost a short fabric4k-pdes window pays.
// pdes.windows times (this round - the lanes' own work) is the barrier's
// share of a partitioned run.
void BM_LanePoolRound(benchmark::State& state) {
  const auto work = std::chrono::nanoseconds(state.range(0));
  sim::exec::LanePool pool(2);
  const std::function<void(std::size_t)> lane = [&](std::size_t) {
    const auto until = std::chrono::steady_clock::now() + work;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  for (auto _ : state) pool.run(4, lane);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LanePoolRound)->Arg(0)->Arg(5000)->UseRealTime();

// Nic::conn's lookup, get_or_create on a warm ConnectionTable, over
// range(0) tables (one per NIC) of range(1) peers each, in a shuffled
// (table, peer) order so the tables compete for cache as the NICs of a
// large run do. Peers are the pairwise-exchange partners (t XOR 2^k) when
// they fit, else the nearest ring neighbours. Shapes: fabric4k's PE phase
// (4096 x 12), a tenants64-like switch (64 x 60) and paper16 (16 x 15).
void BM_ConnectionLookup(benchmark::State& state) {
  const auto tables = static_cast<std::size_t>(state.range(0));
  const auto peers = static_cast<std::size_t>(state.range(1));
  const bool pe = (std::size_t{1} << peers) <= tables;
  std::vector<nic::ConnectionTable> nics(tables);
  std::vector<std::pair<std::uint32_t, net::NodeId>> order;
  for (std::size_t t = 0; t < tables; ++t) {
    for (std::size_t j = 0; j < peers; ++j) {
      const std::size_t peer = pe ? t ^ (std::size_t{1} << j) : (t + j + 1) % tables;
      order.emplace_back(static_cast<std::uint32_t>(t), static_cast<net::NodeId>(peer));
      nics[t].get_or_create(static_cast<net::NodeId>(peer));
    }
  }
  std::shuffle(order.begin(), order.end(), std::mt19937(42));
  std::size_t i = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const auto& [t, peer] = order[i];
    sink += nics[t].get_or_create(peer).next_send_seq;
    if (++i == order.size()) i = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConnectionLookup)->Args({4096, 12})->Args({64, 60})->Args({16, 15});

// Barrier-member set-up: construct and destroy range(0) members from one
// group vector, on already-open ports of fabric4k's 4096-node radix-18 8:1
// fat-tree (the first range(0) nodes). Items are members, so the inverse
// of the item rate is the per-member cost; with one shared MemberList per
// group it must not grow with N. The _Shared variant hands every member one
// MemberList built beforehand, as coll::run_barrier_experiment and
// wl::Driver do, so no member compares the group against the cached list.
void BM_MemberSetup(benchmark::State& state, const coll::BarrierSpec& spec, bool shared_list) {
  const auto n = static_cast<std::size_t>(state.range(0));
  host::ClusterParams cp;
  cp.nodes = 4096;
  cp.topology = host::Topology::kFatTree;
  cp.fabric_radix = 18;
  cp.fabric_oversub = 8;
  host::Cluster cluster(cp);
  std::vector<coll::Endpoint> group;
  std::vector<std::unique_ptr<gm::Port>> ports;
  for (std::size_t i = 0; i < n; ++i) {
    group.push_back(coll::Endpoint{static_cast<net::NodeId>(i), 2});
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
  }
  const auto list = std::make_shared<const coll::MemberList>(group);
  std::vector<std::unique_ptr<coll::BarrierMember>> members;
  members.reserve(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(shared_list
                            ? std::make_unique<coll::BarrierMember>(*ports[i], list, spec)
                            : std::make_unique<coll::BarrierMember>(*ports[i], group, spec));
    }
    benchmark::DoNotOptimize(members.back()->my_index());
    members.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_MemberSetup_NicPe(benchmark::State& state) {
  BM_MemberSetup(state, coll::family_spec({coll::Family::kNicPe}),
                 false);
}
void BM_MemberSetup_NicPe_Shared(benchmark::State& state) {
  BM_MemberSetup(state, coll::family_spec({coll::Family::kNicPe}),
                 true);
}
void BM_MemberSetup_Hier(benchmark::State& state) {
  BM_MemberSetup(state, coll::hier_spec(2, 16), false);  // one block per 16-host leaf
}
BENCHMARK(BM_MemberSetup_NicPe)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MemberSetup_NicPe_Shared)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MemberSetup_Hier)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// Set-up of nicbar_bench's tenants64 workload at seed 7 and 20 iterations:
// parse its spec text and construct (validate) the wl::Driver, which is what
// that workload's setup_s times.
constexpr const char* kTenants64Spec =
    "cluster-nodes 64\nnic lanai43\ntopology switch\nplacement overlapping\n"
    "reliability shared\nnic-slots 1\narrival poisson 200\nseed 7\nhist-max-us 20000\n"
    "job managed-pe\n  count 8\n  nodes 8\n  iters 20\n  mix barrier=1\n  compute-us 20\n"
    "  imbalance 0.3\n  lifecycle managed\n"
    "job solver\n  count 4\n  nodes 8\n  iters 20\n  mix barrier=0.4 allreduce=0.4 bcast=0.2\n"
    "  compute-us 20\n  imbalance 0.3\n  layer-us 4\n"
    "job rdma\n  count 4\n  nodes 8\n  iters 20\n  mix barrier=1\n  compute-us 20\n"
    "  imbalance 0.3\n  algorithm host-dissem\n";

void BM_WorkloadSpecParse(benchmark::State& state) {
  const std::string text = kTenants64Spec;
  for (auto _ : state) {
    const wl::Driver driver(wl::parse_workload_spec(text));
    benchmark::DoNotOptimize(driver.spec().classes.size());
  }
}
BENCHMARK(BM_WorkloadSpecParse);

void BM_BarrierSimulation(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    coll::ExperimentParams p;
    p.nodes = nodes;
    p.reps = 10;
    p.spec = coll::family_spec({coll::Family::kNicPe});
    benchmark::DoNotOptimize(coll::run_barrier_experiment(p).mean_us);
  }
  state.SetItemsProcessed(state.iterations() * 10);  // barriers per iteration
}
BENCHMARK(BM_BarrierSimulation)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
