// Heap-allocation budgets: of a steady-state barrier, of member set-up, of
// opening a port, and of the per-connection reliability state; plus the
// sizes of the objects a 4096-node run keeps one of per node, port,
// connection or link (DESIGN.md "Memory layout").
//
// This binary counts heap allocations and the bytes they request. It
// measures the allocations one barrier costs once a run is warm: the
// difference between a 1100-rep and a 100-rep
// coll::run_barrier_experiment, divided by the 1000 extra barriers, so
// cluster construction, port opening and member setup cancel out. A warm-up
// run first fills this thread's recycled-packet free list, so both measured
// runs start from the same pool. It also measures the bytes allocated to
// construct N members from one group vector, which must grow linearly in N:
// the members share one coll::MemberList, so any per-member copy of the
// group (a by-value parameter included) makes them grow as N².
//
// Plain builds count calls to a replacement global operator new. Under
// AddressSanitizer or ThreadSanitizer the runtime owns operator new, so the
// count comes from its allocation hook instead (every heap allocation, not
// only operator new; in steady state the two agree).
//
// The budgets are a fifth of what each of the four 2001 variants at N = 16
// allocated per barrier before packets travelled in recycled handles and
// firmware jobs became move-only (NIC-PE 864, NIC-GB 459, host-PE 1762,
// host-GB 829). Packet::describe() allocates its string, so a trace
// argument evaluated with tracing off shows up here too.
//
// State a run does not use is not allocated: opening a port allocates only
// the gm::Port and the NIC's PortState (their queues allocate on first
// push), and a connection allocates its reliability block only when it
// first sends reliably, which the paper's unreliable barrier never does.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coll/family.hpp"
#include "coll/runner.hpp"
#include "coll/schedule.hpp"
#include "coll/sweep.hpp"
#include "gm/port.hpp"
#include "host/cluster.hpp"
#include "net/link.hpp"
#include "nic/config.hpp"
#include "nic/connection.hpp"
#include "nic/nic.hpp"
#include "sim/sync.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NICBAR_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NICBAR_SANITIZER_HEAP 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

#ifdef NICBAR_SANITIZER_HEAP

extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {

void count_allocation(const volatile void*, std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}
void ignore_free(const volatile void*) {}

[[maybe_unused]] const int g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(count_allocation, ignore_free);

}  // namespace

#else

// GCC reports free() in a replacement operator delete as a new/free
// mismatch; these replacements pair malloc with free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

#endif

namespace nicbar::coll {
namespace {

// The hot objects of a 4096-node run, at their sizes under GCC 12 and
// libstdc++ on x86-64 (a 4096-node fat-tree keeps about 49 000 connections,
// 4096 NICs and ports and 12 000 links live). Connection holds the paper's
// one-byte unexpected record with an 8-byte sidecar per remote port; cold
// state lives behind pointers. A field added to one of these must earn its
// bytes here.
static_assert(sizeof(nic::Connection) <= 96);
static_assert(sizeof(net::Link) <= 248);
static_assert(sizeof(nic::Nic) <= 792);
static_assert(sizeof(gm::Port) <= 144);
static_assert(sizeof(sim::Mailbox<nic::GmEvent>) <= 48);

struct Variant {
  const char* name;
  Location location;
  nic::BarrierAlgorithm algorithm;
  double parent_per_barrier;  // measured before the allocation-free packet path
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

std::uint64_t allocations_for(const Variant& v, int reps) {
  ExperimentParams params;
  params.nodes = 16;
  params.reps = reps;
  params.spec = spec(v.location, v.algorithm, 4);
  params.cluster.nic = nic::lanai43();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ExperimentResult r = run_barrier_experiment(params);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(r.barrier_failures, 0u) << v.name;
  EXPECT_EQ(r.stalled_members, 0u) << v.name;
  return after - before;
}

class AllocBudgetTest : public ::testing::TestWithParam<Variant> {};

TEST_P(AllocBudgetTest, SteadyStateBarrierAllocatesAFifthOfTheOldPath) {
  const Variant& v = GetParam();
  (void)allocations_for(v, 100);  // warm-up: fills the packet free list
  const std::uint64_t short_run = allocations_for(v, 100);
  const std::uint64_t long_run = allocations_for(v, 1100);
  ASSERT_GE(long_run, short_run) << v.name;
  const double per_barrier = static_cast<double>(long_run - short_run) / 1000.0;
  RecordProperty("allocations_per_barrier", std::to_string(per_barrier));
  std::printf("%s: %.1f allocations per barrier (budget %.1f)\n", v.name, per_barrier,
              v.parent_per_barrier / 5.0);
  EXPECT_LE(per_barrier, v.parent_per_barrier / 5.0)
      << v.name << ": " << per_barrier << " allocations per steady-state barrier";
}

INSTANTIATE_TEST_SUITE_P(
    Paper2001Variants, AllocBudgetTest,
    ::testing::Values(
        Variant{"nic_pe", Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange, 864},
        Variant{"nic_gb4", Location::kNic, nic::BarrierAlgorithm::kGatherBroadcast, 459},
        Variant{"host_pe", Location::kHost, nic::BarrierAlgorithm::kPairwiseExchange, 1762},
        Variant{"host_gb4", Location::kHost, nic::BarrierAlgorithm::kGatherBroadcast, 829}),
    [](const ::testing::TestParamInfo<Variant>& p) { return std::string(p.param.name); });

/// Bytes allocated while constructing `n` NIC-PE members from one group
/// vector on an n-node switch. Ports are opened and the member vector sized
/// first, so only the members' own allocations count.
std::uint64_t member_setup_bytes(std::size_t n) {
  host::ClusterParams cp;
  cp.nodes = n;
  host::Cluster cluster(cp);
  std::vector<Endpoint> group;
  std::vector<std::unique_ptr<gm::Port>> ports;
  for (std::size_t i = 0; i < n; ++i) {
    group.push_back(Endpoint{static_cast<net::NodeId>(i), 2});
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
  }
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  std::vector<std::unique_ptr<BarrierMember>> members;
  members.reserve(n);
  const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(std::make_unique<BarrierMember>(*ports[i], group, pe));
  }
  return g_allocated_bytes.load(std::memory_order_relaxed) - before;
}

TEST(MemberSetupBudgetTest, BytesPerMemberDoNotGrowWithTheGroup) {
  const double per_member_64 = static_cast<double>(member_setup_bytes(64)) / 64.0;
  const double per_member_256 = static_cast<double>(member_setup_bytes(256)) / 256.0;
  std::printf("member set-up: %.1f B/member at N=64, %.1f B/member at N=256\n", per_member_64,
              per_member_256);
  // A private copy of the group costs sizeof(Endpoint) * N per member: 768 B
  // more per member at 256 than at 64. The shared list costs 12 B per
  // member at any N, and the PE schedule's two extra rounds fit the vector
  // capacity it already has.
  EXPECT_LE(per_member_256, per_member_64 + 64.0)
      << "member set-up allocates " << per_member_64 << " B/member at N=64 but "
      << per_member_256 << " B/member at N=256";
}

TEST(FamilyLookupBudgetTest, SuccessfulLookupsAllocateNothing) {
  // Every BarrierMember resolves and validates its family when it is built,
  // and wl:: does the same for every class it parses; none of it may touch
  // the heap while the family is usable as asked.
  std::uint64_t resolved = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const coll::FamilyRow& row : coll::kFamilies) {
    resolved += coll::family_of(coll::family_spec({row.family, 3})) == row.family;
    resolved += coll::find_family(row.name, row.location) == &row;
    resolved += coll::family_refusal(row.family, {.location = row.location,
                                                  .dim = 3,
                                                  .managed = row.managed,
                                                  .fuzzy = row.fuzzy,
                                                  .reductions = row.reductions})
                    .empty();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(resolved, 3 * coll::kFamilies.size());
}

TEST(OpenPortBudgetTest, OpeningAPortOnAFreshNodeAllocatesAtMost512Bytes) {
  host::ClusterParams cp;
  cp.nodes = 2;
  host::Cluster cluster(cp);
  const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  const std::unique_ptr<gm::Port> port = cluster.open_port(0, 2);
  const std::uint64_t bytes = g_allocated_bytes.load(std::memory_order_relaxed) - before;
  std::printf("open_port: %llu B\n", static_cast<unsigned long long>(bytes));
  // The gm::Port and the NIC's PortState; an empty event mailbox, receive
  // token queue or parked-RMA queue allocates nothing.
  EXPECT_LE(bytes, 512u);
  EXPECT_TRUE(port->is_open());
}

sim::Task barrier_loop(BarrierMember& member, int reps, int& completed) {
  for (int r = 0; r < reps; ++r) {
    if (co_await member.run() != BarrierStatus::kOk) co_return;
    ++completed;
  }
}

/// Connections holding a reliability block after 10 NIC-PE barriers on a
/// 64-node switch, summed over every NIC.
std::size_t reliability_blocks_after_pe(nic::BarrierReliability mode) {
  constexpr std::size_t kNodes = 64;
  constexpr int kReps = 10;
  host::ClusterParams cp;
  cp.nodes = kNodes;
  cp.nic.barrier_reliability = mode;
  host::Cluster cluster(cp);
  std::vector<Endpoint> group;
  std::vector<std::unique_ptr<gm::Port>> ports;
  for (std::size_t i = 0; i < kNodes; ++i) {
    group.push_back(Endpoint{static_cast<net::NodeId>(i), 2});
    ports.push_back(cluster.open_port(static_cast<net::NodeId>(i), 2));
  }
  const auto list = std::make_shared<const MemberList>(group);
  const BarrierSpec pe = spec(Location::kNic, nic::BarrierAlgorithm::kPairwiseExchange);
  std::vector<std::unique_ptr<BarrierMember>> members;
  std::vector<int> completed(kNodes, 0);
  for (std::size_t i = 0; i < kNodes; ++i) {
    members.push_back(std::make_unique<BarrierMember>(*ports[i], list, pe));
    cluster.sim().spawn(barrier_loop(*members[i], kReps, completed[i]));
  }
  cluster.run_all();
  std::size_t blocks = 0;
  std::size_t connections = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(completed[i], kReps) << "member " << i;
    blocks += cluster.nic(static_cast<net::NodeId>(i)).reliability_blocks();
    connections += cluster.nic(static_cast<net::NodeId>(i)).connections_allocated();
  }
  EXPECT_GT(connections, 0u);
  return blocks;
}

TEST(ConnectionReliabilityBudgetTest, UnreliableBarrierAllocatesNoReliabilityBlock) {
  EXPECT_EQ(reliability_blocks_after_pe(nic::BarrierReliability::kUnreliable), 0u);
}

TEST(ConnectionReliabilityBudgetTest, SharedStreamBarrierAllocatesReliabilityBlocks) {
  // Every PE peer gets a sequenced packet, so each connection that sends
  // holds a block: 64 nodes x log2(64) peers.
  EXPECT_EQ(reliability_blocks_after_pe(nic::BarrierReliability::kSharedStream), 64u * 6u);
}

}  // namespace
}  // namespace nicbar::coll
