// The paper's Equations 1-3 as the term table evaluates them.
#include "model/timing.hpp"

#include <gtest/gtest.h>

#include "coll/sweep.hpp"

namespace nicbar::model {
namespace {

using coll::Location;
using nic::BarrierAlgorithm;

struct Config {
  nic::NicConfig nic = nic::lanai43();
  gm::GmConfig gm;
  net::LinkParams link;
  net::SwitchParams sw;
  [[nodiscard]] Inputs in() const { return {nic, gm, link, sw}; }
};

Form pe(Location loc, std::size_t n) {
  return form(coll::spec(loc, BarrierAlgorithm::kPairwiseExchange), n);
}
double host_us(const Config& c, std::size_t n) {
  return sum(pe(Location::kHost, n), c.in()).exact().us();
}
double nic_us(const Config& c, std::size_t n) {
  return sum(pe(Location::kNic, n), c.in()).exact().us();
}
double improvement(const Config& c, std::size_t n) { return host_us(c, n) / nic_us(c, n); }

/// The sum of a chain's terms in `phase`, each counted once.
sim::Duration phase_cost(const Config& c, Chain chain, Phase phase) {
  sim::Duration d{0};
  for (const Term& t : kTerms) {
    if ((t.chains & chain) != 0 && t.phase == phase) d += t.cost(c.in());
  }
  return d;
}

TEST(PeCriticalRoundsTest, Values) {
  EXPECT_EQ(pe_critical_rounds(1), 0u);
  EXPECT_EQ(pe_critical_rounds(2), 1u);
  EXPECT_EQ(pe_critical_rounds(4), 2u);
  EXPECT_EQ(pe_critical_rounds(8), 3u);
  EXPECT_EQ(pe_critical_rounds(16), 4u);
  EXPECT_EQ(pe_critical_rounds(1024), 10u);
  // A fold's skew compounds past log2(N) rounded up.
  EXPECT_EQ(pe_critical_rounds(3), 3u);
  EXPECT_EQ(pe_critical_rounds(12), 5u);
}

TEST(EquationsTest, Eq1IsLinearInRounds) {
  const Config c;
  const sim::Duration msg = sum(pe(Location::kHost, 2), c.in()).exact();
  for (std::size_t r = 1; r <= 4; ++r) {
    EXPECT_EQ(sum(pe(Location::kHost, 1u << r), c.in()).exact(),
              static_cast<std::int64_t>(r) * msg);
  }
}

TEST(EquationsTest, Eq2OnlyNetworkAndRecvScale) {
  const Config c;
  for (const Term& t : kTerms) {
    if ((t.chains & kNicBarrier) == 0 || !t.per_round) continue;
    EXPECT_TRUE(t.phase == Phase::kNetwork || t.phase == Phase::kRecv) << t.name;
  }
  const Form two = pe(Location::kNic, 2);
  sim::Duration round{0};
  for (const Term& t : kTerms) {
    if (t.per_round) round += charge(two, t, c.in());
  }
  EXPECT_EQ(sum(pe(Location::kNic, 16), c.in()).exact(), sum(two, c.in()).exact() + 3 * round);
}

TEST(EquationsTest, PaperBallpark) {
  // The paper's §1 numbers put a 16-node host barrier at 120-240us.
  const Config c;
  EXPECT_GT(host_us(c, 16), 120.0);
  EXPECT_LT(host_us(c, 16), 240.0);
  EXPECT_GT(improvement(c, 16), 1.0);
}

TEST(EquationsTest, ImprovementGrowsWithNodes) {
  const Config c;
  double prev = 0;
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const double f = improvement(c, n);
    EXPECT_GT(f, prev) << "n=" << n;
    prev = f;
  }
}

TEST(EquationsTest, ImprovementGrowsWithSendOverhead) {
  // Eq. 3 prediction: adding a software layer (bigger Send/HRecv) raises it.
  Config c;
  const double base = improvement(c, 16);
  c.gm.layer_overhead = sim::microseconds(10.0);
  EXPECT_GT(improvement(c, 16), base);
}

TEST(EquationsTest, ImprovementBoundedByRatioLimit) {
  // As R -> inf, improvement -> (host message) / (NIC round).
  const Config c;
  const Form host{Location::kHost, BarrierAlgorithm::kPairwiseExchange, 32};
  const Form nic{Location::kNic, BarrierAlgorithm::kPairwiseExchange, 32};
  sim::Duration msg{0}, round{0};
  for (const Term& t : kTerms) {
    msg += charge({Location::kHost, BarrierAlgorithm::kPairwiseExchange, 1}, t, c.in());
    if (t.per_round) round += charge({nic.location, nic.algorithm, 1}, t, c.in());
  }
  const double limit = msg.us() / round.us();
  const double f = sum(host, c.in()).exact().us() / sum(nic, c.in()).exact().us();
  EXPECT_LT(f, limit);
  EXPECT_GT(f, 0.95 * limit);
}

TEST(DerivePhasesTest, Lanai72HalvesOnlyNicCycles) {
  Config slow;
  Config fast;
  fast.nic = nic::lanai72();
  // Pure NIC-cycle phases halve.
  EXPECT_NEAR(phase_cost(fast, kHostMessage, Phase::kRecv).us(),
              phase_cost(slow, kHostMessage, Phase::kRecv).us() / 2.0, 0.01);
  // Host-side cost is unchanged.
  EXPECT_EQ(phase_cost(fast, kHostMessage, Phase::kHrecv),
            phase_cost(slow, kHostMessage, Phase::kHrecv));
  // Send = host + detect-cycles: strictly between unchanged and halved.
  const sim::Duration send_slow = phase_cost(slow, kHostMessage, Phase::kSend);
  const sim::Duration send_fast = phase_cost(fast, kHostMessage, Phase::kSend);
  EXPECT_LT(send_fast, send_slow);
  EXPECT_GT(send_fast.us(), send_slow.us() / 2.0);
}

TEST(DerivePhasesTest, LayerOverheadEntersSendAndHrecv) {
  Config base;
  Config layered;
  layered.gm.layer_overhead = sim::microseconds(7.0);
  for (const Chain chain : {kHostMessage, kNicPe, kNicGb}) {
    for (const Phase p : {Phase::kSend, Phase::kSdma, Phase::kNetwork, Phase::kRecv,
                          Phase::kRdma, Phase::kHrecv, Phase::kOmitted}) {
      const bool layer = p == Phase::kSend || p == Phase::kHrecv;
      EXPECT_EQ(phase_cost(layered, chain, p) - phase_cost(base, chain, p),
                sim::microseconds(layer ? 7.0 : 0.0));
    }
  }
}

TEST(DerivePhasesTest, PayloadSizeEntersSdmaRdmaAndNetwork) {
  Config small;
  Config big;
  big.nic.barrier_payload_bytes = 64 * 1024;
  EXPECT_GT(phase_cost(big, kHostMessage, Phase::kSdma),
            phase_cost(small, kHostMessage, Phase::kSdma));
  EXPECT_GT(phase_cost(big, kHostMessage, Phase::kRdma),
            phase_cost(small, kHostMessage, Phase::kRdma));
  EXPECT_GT(phase_cost(big, kHostMessage, Phase::kNetwork),
            phase_cost(small, kHostMessage, Phase::kNetwork));
  EXPECT_EQ(phase_cost(big, kHostMessage, Phase::kRecv),
            phase_cost(small, kHostMessage, Phase::kRecv));
}

TEST(DerivePhasesTest, PredictionTracksSimulationWithin10Percent) {
  // Cross-check against the calibrated simulator (bench/fig5a): 16-node
  // host-PE ~182us, NIC-PE ~101us.
  const Config c;
  EXPECT_NEAR(host_us(c, 16), 182.0, 18.0);
  EXPECT_NEAR(nic_us(c, 16), 101.0, 10.0);
}

TEST(ExplainTest, PaperFormThenOmittedTermsByName) {
  const Config c;
  EXPECT_EQ(explain(pe(Location::kNic, 16), c.in()),
            "  Eq.2 = Send 5.03 + 4 x (Network 2.63 + Recv 17.27) + RDMA 5.51 + HRecv 6.00"
            " = 96.16 us\n"
            "  omitted by Eq. 1-2: host_provide 0.30 + barrier_init 4.55 = 4.85 us\n");
  EXPECT_EQ(explain(form(coll::spec(Location::kHost, BarrierAlgorithm::kGatherBroadcast, 3), 12),
                    c.in()),
            "  Eq.1 = 4 x (Send 7.53 + SDMA 9.00 + Network 1.72 + Recv 14.55 + RDMA 5.51"
            " + HRecv 6.00) = 177.23 us\n"
            "  omitted by Eq. 1-2: 4 x (host_provide 0.30 + ack_tx 0.91) = 4.84 us\n");
}

}  // namespace
}  // namespace nicbar::model
