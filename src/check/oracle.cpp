#include "check/oracle.hpp"

#include <cmath>

#include "coll/schedule.hpp"
#include "coll/sweep.hpp"

namespace nicbar::sim::check {

namespace {

// Every cost below is truncated to integer picoseconds PER JOB, exactly as
// the simulator charges it: each firmware handler is one CycleServer job,
// each bus occupancy one BusyServer job. Summing pre-truncated terms is what
// makes the closed form bit-exact, not just close.

Duration cyc(const nic::NicConfig& c, std::int64_t n) { return cycles_at_mhz(n, c.clock_mhz); }

/// One PCI crossing of a barrier-sized token: bus setup + payload transfer.
Duration pci_xfer(const nic::NicConfig& c) {
  return c.pci_setup + transfer_time(c.barrier_payload_bytes, c.pci_bandwidth_mbps);
}

/// One-way NIC-to-NIC flight through the single switch: uplink
/// serialisation + propagation, switch routing, downlink serialisation +
/// propagation. The source route is one byte per switch hop and is carried
/// (not stripped) on every hop, so both serialisations cover the same
/// header + route + payload bytes.
Duration flight(const nic::NicConfig& c, const net::LinkParams& l, const net::SwitchParams& sw) {
  const std::int64_t wire_bytes = l.header_bytes + 1 + c.barrier_payload_bytes;
  const Duration wire = transfer_time(wire_bytes, l.bandwidth_mbps);
  return wire + l.propagation + sw.routing_latency + wire + l.propagation;
}

/// Eq. 1 building block — one host-based PE round, i.e. one full GM message
/// from host call to host event (the Fig. 2 phase chain):
///   Send:   gm_send_with_callback + the SDMA engine noticing the token and
///           programming the host->NIC DMA
///   SDMA:   PCI crossing + packet prep + hand-off to the wire
///   Net:    flight through the switch
///   Recv:   receive/verify processing, plus the ack TX job the reliable
///           data stream queues on the processor *before* the RDMA job
///   RDMA:   NIC->host DMA programming + PCI crossing
///   HRecv:  host event processing + replenishing the consumed recv buffer
Duration host_pe_round(const nic::NicConfig& c, const gm::GmConfig& gm,
                       const net::LinkParams& l, const net::SwitchParams& sw) {
  const Duration layer = gm.layer_overhead;
  return gm.host_send_overhead + layer                               // Send (host)
         + cyc(c, c.sdma_detect_cycles) + cyc(c, c.sdma_setup_cycles)  // Send (NIC)
         + pci_xfer(c)                                               // SDMA: DMA in
         + cyc(c, c.sdma_prepare_cycles) + cyc(c, c.send_cycles)     // SDMA: prep + TX
         + flight(c, l, sw)                                          // Network
         + cyc(c, c.recv_cycles)                                     // Recv
         + cyc(c, c.send_cycles)                                     // ack TX before RDMA
         + cyc(c, c.rdma_setup_cycles) + pci_xfer(c)                 // RDMA
         + gm.host_recv_overhead + layer                             // HRecv
         + gm.host_provide_overhead;                                 // buffer replenish
}

/// Eq. 2 — one steady-state NIC-based PE barrier: the host pays Send once,
/// the NIC runs all R rounds back to back, and one RDMA + HRecv closes it.
Duration nic_pe_barrier(const nic::NicConfig& c, const gm::GmConfig& gm,
                        const net::LinkParams& l, const net::SwitchParams& sw, std::size_t r) {
  const Duration layer = gm.layer_overhead;
  const Duration round = cyc(c, c.barrier_send_cycles) + flight(c, l, sw) +
                         cyc(c, c.recv_cycles) + cyc(c, c.barrier_pe_cycles);
  return gm.host_provide_overhead                    // re-post the barrier buffer
         + gm.host_barrier_overhead + layer          // post the barrier token
         + cyc(c, c.sdma_detect_cycles) + cyc(c, c.barrier_init_cycles)
         + static_cast<std::int64_t>(r) * round
         + cyc(c, c.rdma_setup_cycles) + pci_xfer(c)
         + gm.host_recv_overhead + layer;
}

/// GB analogue of Eq. 2 (approximate): gather D levels up the tree,
/// broadcast D levels back down, with the GB per-message firmware cost.
/// Queueing of sibling gathers at inner nodes is not modelled — tolerance.
Duration nic_gb_barrier(const nic::NicConfig& c, const gm::GmConfig& gm,
                        const net::LinkParams& l, const net::SwitchParams& sw,
                        std::size_t nodes, std::size_t dim) {
  const Duration layer = gm.layer_overhead;
  const std::size_t depth = coll::gb_tree_depth(nodes, dim);
  const Duration hop = cyc(c, c.barrier_send_cycles) + flight(c, l, sw) +
                       cyc(c, c.recv_cycles) + cyc(c, c.barrier_gb_cycles);
  return gm.host_provide_overhead + gm.host_barrier_overhead + layer +
         cyc(c, c.sdma_detect_cycles) +
         cyc(c, c.barrier_init_cycles + c.barrier_gb_init_cycles) +
         static_cast<std::int64_t>(2 * depth) * hop +
         cyc(c, c.rdma_setup_cycles) + pci_xfer(c) + gm.host_recv_overhead + layer;
}

/// GB analogue of Eq. 1 (approximate): 2D full host messages on the
/// deepest-leaf critical path.
Duration host_gb_barrier(const nic::NicConfig& c, const gm::GmConfig& gm,
                         const net::LinkParams& l, const net::SwitchParams& sw,
                         std::size_t nodes, std::size_t dim) {
  const std::size_t depth = coll::gb_tree_depth(nodes, dim);
  return static_cast<std::int64_t>(2 * depth) * host_pe_round(c, gm, l, sw);
}

/// PE round count on the critical path. For a power of two every member runs
/// log2(N) exchanges in lockstep. With a non-power-of-two tail the members
/// folding an extra run two exchanges more than their neighbours, and that
/// skew COMPOUNDS: a member's hypercube partner may itself be waiting on a
/// skewed partner, so the last completion is far later than (rounds + 2).
/// Model it exactly at round granularity: rebuild the per-member schedules
/// (the same pairing rule as coll::pe_schedule, over indices) and evaluate
/// the exchange dependency DAG, where exchange j of member m completes one
/// round after both m and its matched partner finished their previous
/// exchanges. Queueing *within* a round (shared wires) is still ignored —
/// that is what the non-exact tolerance covers.
std::size_t pe_critical_rounds(std::size_t nodes) {
  if (nodes <= 1) return 0;
  std::size_t p2 = 1;
  while (p2 * 2 <= nodes) p2 *= 2;
  const std::size_t extras = nodes - p2;

  std::vector<std::vector<std::size_t>> sched(nodes);
  for (std::size_t m = 0; m < nodes; ++m) {
    if (m >= p2) {
      sched[m] = {m - p2, m - p2};  // enter through the partner, get released
      continue;
    }
    if (m < extras) sched[m].push_back(m + p2);
    for (std::size_t bit = 1; bit < p2; bit <<= 1) sched[m].push_back(m ^ bit);
    if (m < extras) sched[m].push_back(m + p2);
  }

  // match[m][j] = index of the exchange in the partner's schedule paired with
  // (m, j): the i-th occurrence of q in sched[m] pairs with the i-th
  // occurrence of m in sched[q].
  std::vector<std::vector<std::size_t>> match(nodes);
  for (std::size_t m = 0; m < nodes; ++m) {
    match[m].resize(sched[m].size());
    for (std::size_t j = 0; j < sched[m].size(); ++j) {
      const std::size_t q = sched[m][j];
      std::size_t occ = 0;
      for (std::size_t i = 0; i < j; ++i) occ += sched[m][i] == q ? 1 : 0;
      std::size_t seen = 0;
      for (std::size_t k = 0; k < sched[q].size(); ++k) {
        if (sched[q][k] != m) continue;
        if (seen == occ) {
          match[m][j] = k;
          break;
        }
        ++seen;
      }
    }
  }

  // T[m][j] = round count when exchange j of m completes. The graph is a
  // DAG, so repeated sweeps reach the fixpoint in a few passes.
  std::vector<std::vector<std::size_t>> t(nodes);
  for (std::size_t m = 0; m < nodes; ++m) t[m].assign(sched[m].size(), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t m = 0; m < nodes; ++m) {
      for (std::size_t j = 0; j < sched[m].size(); ++j) {
        const std::size_t q = sched[m][j];
        const std::size_t k = match[m][j];
        const std::size_t mine = j > 0 ? t[m][j - 1] : 0;
        const std::size_t theirs = k > 0 ? t[q][k - 1] : 0;
        const std::size_t done = (mine > theirs ? mine : theirs) + 1;
        if (done != t[m][j]) {
          t[m][j] = done;
          changed = true;
        }
      }
    }
  }
  std::size_t crit = 0;
  for (std::size_t m = 0; m < nodes; ++m) {
    if (!t[m].empty() && t[m].back() > crit) crit = t[m].back();
  }
  return crit;
}

}  // namespace

bool contention_free(nic::BarrierAlgorithm alg, std::size_t nodes) {
  if (alg != nic::BarrierAlgorithm::kPairwiseExchange) return false;
  return nodes >= 2 && (nodes & (nodes - 1)) == 0;
}

Duration predict_barrier(const OracleCase& c, const gm::GmConfig& gm,
                         const net::LinkParams& link, const net::SwitchParams& sw) {
  if (c.algorithm == nic::BarrierAlgorithm::kPairwiseExchange) {
    const std::size_t r = pe_critical_rounds(c.nodes);
    if (c.location == coll::Location::kHost) {
      return static_cast<std::int64_t>(r) * host_pe_round(c.nic, gm, link, sw);
    }
    return nic_pe_barrier(c.nic, gm, link, sw, r);
  }
  if (c.location == coll::Location::kHost) {
    return host_gb_barrier(c.nic, gm, link, sw, c.nodes, c.gb_dimension);
  }
  return nic_gb_barrier(c.nic, gm, link, sw, c.nodes, c.gb_dimension);
}

Duration measure_barrier(const OracleCase& c) {
  coll::ExperimentParams p = coll::experiment(c.nic, c.nodes);
  p.spec = coll::spec(c.location, c.algorithm, c.gb_dimension);
  const int r = 6;
  p.reps = r;
  const Duration total_r = coll::run_barrier_experiment(p).total;
  p.reps = 2 * r;
  const Duration total_2r = coll::run_barrier_experiment(p).total;
  return (total_2r - total_r) / r;
}

OracleOutcome run_oracle_case(const OracleCase& c) {
  OracleOutcome out;
  coll::ExperimentParams p = coll::experiment(c.nic, c.nodes);
  p.spec = coll::spec(c.location, c.algorithm, c.gb_dimension);
  out.label = coll::variant_label(p);
  const gm::GmConfig gm;
  const net::LinkParams link;
  const net::SwitchParams sw;
  out.predicted = predict_barrier(c, gm, link, sw);
  out.simulated = measure_barrier(c);
  out.exact = contention_free(c.algorithm, c.nodes);
  out.rel_error = out.predicted.ps() == 0
                      ? 1.0
                      : std::fabs(static_cast<double>(out.simulated.ps() - out.predicted.ps())) /
                            static_cast<double>(out.predicted.ps());
  const double tolerance = c.algorithm == nic::BarrierAlgorithm::kGatherBroadcast
                               ? kGbOracleTolerance
                               : kPeFoldOracleTolerance;
  out.pass = out.exact ? out.simulated == out.predicted : out.rel_error <= tolerance;
  return out;
}

OracleReport run_differential_oracle() {
  OracleReport rep;
  for (const bool lanai72 : {false, true}) {
    for (const coll::FamilyRow& row : coll::kFamilies) {
      if (!row.closed_form) continue;
      for (std::size_t n = 2; n <= 16; ++n) {
        OracleCase c;
        c.location = row.spec.location;
        c.algorithm = row.spec.algorithm;
        c.nodes = n;
        c.nic = lanai72 ? nic::lanai72() : nic::lanai43();
        const OracleOutcome out = run_oracle_case(c);
        ++rep.checked;
        if (out.exact) ++rep.exact_cases;
        if (!out.pass) ++rep.failures;
        if (!out.exact && out.rel_error > rep.max_rel_error) rep.max_rel_error = out.rel_error;
        rep.outcomes.push_back(out);
      }
    }
  }
  return rep;
}

}  // namespace nicbar::sim::check
