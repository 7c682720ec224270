#include "wl/driver.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/group.hpp"
#include "mpi/communicator.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::wl {

namespace {

// Substream purposes (stable tags — changing one would reshuffle seeds).
constexpr std::uint64_t kArrivalStream = 1;
constexpr std::uint64_t kScheduleStream = 2;
constexpr std::uint64_t kMemberStream = 3;

/// Latency sink: exact mean/max plus a histogram for percentiles.
struct TailCollector {
  sim::Accumulator acc;
  sim::Histogram hist;

  TailCollector(double max_us, std::size_t bins) : hist(0.0, max_us, bins) {}

  void add(double us) {
    acc.add(us);
    hist.add(us);
  }

  [[nodiscard]] TailStats stats() const {
    TailStats t;
    t.count = acc.count();
    if (t.count == 0) return t;
    t.mean_us = acc.mean();
    t.max_us = acc.max();
    t.p50_us = hist.percentile(50.0);
    t.p95_us = hist.percentile(95.0);
    t.p99_us = hist.percentile(99.0);
    return t;
  }
};

struct MemberRun {
  std::unique_ptr<gm::Port> port;
  // Exactly one of the three engines is set: a bare BarrierMember for a
  // barrier-only mix (see CollectiveMix::barrier_only), a Communicator for
  // mixed collectives, or a GroupMember for a managed-lifecycle class.
  std::unique_ptr<coll::BarrierMember> member;
  std::unique_ptr<mpi::Communicator> comm;
  std::unique_ptr<coll::GroupMember> gmember;
  sim::Rng rng{0};  // compute-skew / start-jitter stream
  sim::SimTime start{0}, end{0};
  bool finished = false;
};

struct JobRun {
  const JobClass* klass = nullptr;
  std::size_t job_index = 0;
  std::vector<net::NodeId> node_set;
  std::vector<CollectiveKind> schedule;  // one kind per iteration
  sim::SimTime arrival{0};               // fixed/poisson: precomputed
  std::unique_ptr<sim::Gate> gate;       // closed-loop: opened by a predecessor
  std::vector<MemberRun> members;
  std::size_t remaining = 0;
  std::uint64_t failures = 0;
  // Managed-lifecycle bookkeeping (coordinator = member 0 reports the
  // group-level events; degraded barriers are counted per process).
  std::uint64_t degraded = 0;
  bool group_created = false;
  bool group_destroyed = false;
  std::uint64_t group_promotions = 0;
  sim::SimTime end{0};
  std::unique_ptr<TailCollector> latency;
  // SLO bookkeeping (populated only when the class declares an SLO):
  std::vector<SloSample> slo_samples;
  std::vector<nic::Endpoint> endpoints;  // the job's (node, port) pairs
};

struct RunState {
  std::vector<JobRun> jobs;
  std::vector<std::unique_ptr<TailCollector>> per_kind;
  std::unique_ptr<TailCollector> overall;
  const Arrival* arrival = nullptr;
  sim::Simulator* sim = nullptr;
};

CollectiveKind draw_kind(const CollectiveMix& mix, sim::Rng& rng) {
  if (!mix.mixed()) {
    if (mix.fuzzy > 0.0) return CollectiveKind::kFuzzyBarrier;
    if (mix.allreduce > 0.0) return CollectiveKind::kAllreduce;
    if (mix.broadcast > 0.0) return CollectiveKind::kBroadcast;
    return CollectiveKind::kBarrier;
  }
  double x = rng.uniform() * mix.total();
  if ((x -= mix.barrier) < 0.0) return CollectiveKind::kBarrier;
  if ((x -= mix.broadcast) < 0.0) return CollectiveKind::kBroadcast;
  if ((x -= mix.allreduce) < 0.0) return CollectiveKind::kAllreduce;
  return CollectiveKind::kFuzzyBarrier;
}

void on_job_done(RunState& st, JobRun& jr) {
  jr.end = st.sim->now();
  if (st.arrival->kind != ArrivalKind::kClosedLoop) return;
  // Release the job `width` places behind us, after the think time.
  const std::size_t next = jr.job_index + st.arrival->width;
  if (next >= st.jobs.size()) return;
  JobRun* nj = &st.jobs[next];
  const sim::Duration think = st.arrival->think;
  if (think.ps() > 0) {
    st.sim->schedule_in(think, [&st, nj] {
      nj->arrival = st.sim->now();
      nj->gate->open();
    });
  } else {
    nj->arrival = st.sim->now();
    nj->gate->open();
  }
}

/// One process of one job. Runs the class's collective schedule with
/// compute phases in between, recording the latency of every collective it
/// observes. Mirrors coll::runner's member_proc for the barrier-only path:
/// with no arrival delay, skew, or compute, the awaited operations — and
/// therefore the simulated timeline — are identical.
sim::Task member_proc(RunState& st, JobRun& jr, std::size_t m) {
  MemberRun& me = jr.members[m];
  const JobClass& k = *jr.klass;

  if (st.arrival->kind == ArrivalKind::kClosedLoop) {
    co_await jr.gate->wait();
  } else {
    co_await st.sim->wait_until(jr.arrival);
  }
  if (!k.start_skew.is_zero()) {
    co_await st.sim->delay(sim::Duration{
        static_cast<std::int64_t>(me.rng.uniform() * static_cast<double>(k.start_skew.ps()))});
  }

  // Managed lifecycle: the group must exist before the first barrier. A
  // failed create (member died mid-handshake) skips the iteration loop but
  // still runs the destroy below, so local NIC state is released.
  bool lifecycle_ok = true;
  if (me.gmember != nullptr) {
    const coll::BarrierStatus cst = co_await me.gmember->run_create();
    if (!coll::is_success(cst)) {
      ++jr.failures;
      lifecycle_ok = false;
    } else if (m == 0) {
      jr.group_created = true;
    }
  }
  me.start = st.sim->now();

  for (int it = 0; lifecycle_ok && it < k.iterations; ++it) {
    if (!k.compute_mean.is_zero()) {
      sim::Duration d = k.compute_mean;
      if (k.compute_imbalance > 0.0) {
        d = sim::Duration{static_cast<std::int64_t>(
            static_cast<double>(d.ps()) *
            me.rng.uniform(1.0 - k.compute_imbalance, 1.0 + k.compute_imbalance))};
      }
      co_await me.port->compute(d);
    }

    const CollectiveKind kind = jr.schedule[static_cast<std::size_t>(it)];
    const sim::SimTime t0 = st.sim->now();
    coll::BarrierStatus status = coll::BarrierStatus::kOk;
    switch (kind) {
      case CollectiveKind::kBarrier:
        status = me.gmember  ? co_await me.gmember->run_barrier()
                 : me.member ? co_await me.member->run()
                             : co_await me.comm->barrier();
        break;
      case CollectiveKind::kFuzzyBarrier:
        (void)co_await me.member->run_fuzzy(k.fuzzy_chunk);
        break;
      case CollectiveKind::kAllreduce:
        (void)co_await me.comm->allreduce(static_cast<std::int64_t>(m), nic::ReduceOp::kSum);
        break;
      case CollectiveKind::kBroadcast:
        (void)co_await me.comm->bcast(static_cast<std::int64_t>(it));
        break;
    }
    const double us = (st.sim->now() - t0).us();
    jr.latency->add(us);
    st.per_kind[static_cast<std::size_t>(kind)]->add(us);
    st.overall->add(us);
    if (!k.slo.is_zero()) jr.slo_samples.push_back(SloSample{st.sim->now().us(), us});
    if (status == coll::BarrierStatus::kOkDegraded) ++jr.degraded;

    if (!coll::is_success(status) || (me.comm && me.comm->failed())) {
      // The group is broken (dead peer or expired deadline): stop looping
      // rather than spinning out `iterations` instant failures.
      ++jr.failures;
      break;
    }
  }

  if (me.gmember != nullptr) {
    // Always destroy — even after a failed create or an aborted barrier —
    // so NIC slots are released and late packets are fenced, not delivered.
    const coll::BarrierStatus dst = co_await me.gmember->run_destroy();
    if (m == 0) {
      jr.group_destroyed = dst == coll::BarrierStatus::kOk;
      jr.group_promotions = me.gmember->promotions();
    }
  }

  me.end = st.sim->now();
  me.finished = true;
  if (--jr.remaining == 0) on_job_done(st, jr);
}

}  // namespace

std::uint64_t substream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t idx) {
  std::uint64_t z = seed ^ (purpose * 0x9e3779b97f4a7c15ULL) ^ (idx * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Driver::Driver(WorkloadSpec spec) : spec_(std::move(spec)) { validate(spec_); }

Report Driver::run() { return run_impl(nullptr); }

std::pair<Report, SloReport> Driver::run_with_slo() {
  SloReport slo;
  Report rep = run_impl(&slo);
  return {std::move(rep), std::move(slo)};
}

Report Driver::run_impl(SloReport* slo_out) {
  const std::vector<std::vector<net::NodeId>> node_sets = place_jobs(spec_);
  const std::size_t job_count = node_sets.size();

  // Per-node GM port allocation: co-located jobs get successive user ports
  // (GM reserves 0-1). All members of a disjoint/strided job land on port 2
  // — the figure benches' convention.
  std::vector<nic::PortId> next_port(spec_.cluster_nodes, 2);
  std::vector<std::vector<nic::PortId>> job_ports(job_count);
  int max_ports_needed = 0;
  for (std::size_t j = 0; j < job_count; ++j) {
    job_ports[j].reserve(node_sets[j].size());
    for (const net::NodeId node : node_sets[j]) {
      if (next_port[node] == 0) {  // wrapped past 255
        throw std::invalid_argument("workload spec: more than 253 jobs co-located on node " +
                                    std::to_string(node));
      }
      job_ports[j].push_back(next_port[node]++);
      if (next_port[node] > max_ports_needed) max_ports_needed = next_port[node];
    }
  }

  host::ClusterParams cp = spec_.cluster;
  cp.nodes = spec_.cluster_nodes;
  if (max_ports_needed > cp.nic.max_ports) cp.nic.max_ports = max_ports_needed;
  if (!cp.faults.empty() && cp.nic.barrier_reliability == nic::BarrierReliability::kUnreliable) {
    // A lost barrier packet is never retransmitted in the unreliable mode. A
    // plain barrier then stalls harmlessly (events run dry), but a fuzzy
    // barrier spins compute chunks forever waiting for a completion that
    // cannot arrive — a livelock, not a finite simulation. Refuse up front.
    for (const JobClass& c : spec_.classes) {
      if (c.mix.fuzzy > 0.0) {
        throw std::invalid_argument(
            "workload spec: class '" + c.name +
            "' uses fuzzy barriers on a faulty fabric with unreliable barrier "
            "delivery; set `reliability shared` (or separate) in the spec");
      }
    }
  }
  sim::telemetry::Telemetry own_telemetry;
  if (cp.telemetry == nullptr) cp.telemetry = &own_telemetry;
  if (slo_out != nullptr && wants_slo(spec_)) {
    // Causal spans give the SLO report its per-segment critical-path
    // attribution. Must precede cluster construction (pointers are cached).
    cp.telemetry->enable_causal();
  }
  host::Cluster cluster(cp);

  RunState st;
  st.arrival = &spec_.arrival;
  st.sim = &cluster.sim();
  st.overall = std::make_unique<TailCollector>(spec_.hist_max_us, spec_.hist_bins);
  for (std::size_t k = 0; k < kCollectiveKindCount; ++k) {
    st.per_kind.push_back(std::make_unique<TailCollector>(spec_.hist_max_us, spec_.hist_bins));
  }

  // Arrival times (fixed/poisson) are precomputed; closed-loop jobs get a
  // gate instead, pre-opened for the first `width` of them.
  sim::Rng arrival_rng(substream(spec_.seed, kArrivalStream, 0));
  st.jobs.resize(job_count);
  {
    std::size_t j = 0;
    sim::SimTime at{0};
    for (const JobClass& klass : spec_.classes) {
      for (std::size_t inst = 0; inst < klass.count; ++inst, ++j) {
        JobRun& jr = st.jobs[j];
        jr.klass = &klass;
        jr.job_index = j;
        jr.node_set = node_sets[j];
        jr.latency = std::make_unique<TailCollector>(spec_.hist_max_us, spec_.hist_bins);
        switch (spec_.arrival.kind) {
          case ArrivalKind::kFixed:
            jr.arrival = sim::SimTime{0} + spec_.arrival.interval * static_cast<std::int64_t>(j);
            break;
          case ArrivalKind::kPoisson:
            // Job 0 arrives at t=0; each later job after an exponential gap.
            if (j > 0) at += sim::microseconds(arrival_rng.exponential(spec_.arrival.interval.us()));
            jr.arrival = at;
            break;
          case ArrivalKind::kClosedLoop:
            jr.gate = std::make_unique<sim::Gate>(cluster.sim());
            if (j < spec_.arrival.width) jr.gate->open();  // no waiters yet: no events
            break;
        }

        // The collective schedule is shared by every member (they must agree
        // on what iteration k is, or the group deadlocks).
        sim::Rng sched_rng(substream(spec_.seed, kScheduleStream, j));
        jr.schedule.reserve(static_cast<std::size_t>(klass.iterations));
        for (int it = 0; it < klass.iterations; ++it) {
          jr.schedule.push_back(draw_kind(klass.mix, sched_rng));
        }

        std::vector<nic::Endpoint> group;
        group.reserve(klass.nodes);
        for (std::size_t m = 0; m < klass.nodes; ++m) {
          group.push_back(nic::Endpoint{jr.node_set[m], job_ports[j][m]});
        }
        jr.endpoints = group;
        // One list for the whole group, handed to every member.
        const auto list = std::make_shared<const coll::MemberList>(group);

        jr.members.resize(klass.nodes);
        jr.remaining = klass.nodes;
        for (std::size_t m = 0; m < klass.nodes; ++m) {
          MemberRun& me = jr.members[m];
          me.port = cluster.open_port(jr.node_set[m], job_ports[j][m]);
          me.rng.reseed(substream(substream(spec_.seed, kMemberStream, j), kMemberStream, m));
          // Hierarchical classes block by the fabric's leaf population; on a
          // flat topology (no fabric) the group degenerates to one block.
          const std::size_t hier_block =
              klass.hierarchical && cluster.fabric() != nullptr ? cluster.fabric()->hosts_per_leaf
                                                                : 0;
          if (klass.managed) {
            coll::GroupConfig gc;
            gc.id = static_cast<std::uint64_t>(j) + 1;  // fabric-unique per job
            gc.algorithm = klass.algorithm;
            gc.gb_dimension = klass.gb_dimension;
            gc.hierarchical = klass.hierarchical;
            gc.hier_block = hier_block;
            gc.deadline = klass.deadline;
            // The barrier deadline doubles as the handshake liveness backstop
            // (a coordinator waiting on a crashed member may have no traffic
            // in flight to it, so no kPeerDead ever arrives).
            gc.ctrl_deadline = klass.deadline;
            gc.promote_every = klass.promote_every;
            me.gmember = std::make_unique<coll::GroupMember>(*me.port, list, gc);
          } else if (klass.mix.barrier_only()) {
            coll::BarrierSpec bspec;
            bspec.location = klass.location;
            bspec.algorithm = klass.algorithm;
            bspec.gb_dimension = klass.gb_dimension;
            bspec.rdma = klass.rdma;  // host-RDMA family (validate() confines
                                      // it to this barrier-only branch)
            bspec.hierarchical = klass.hierarchical;
            bspec.hier_block = hier_block;
            bspec.deadline = klass.deadline;
            me.member = std::make_unique<coll::BarrierMember>(*me.port, list, bspec);
          } else {
            mpi::CommConfig cfg;
            cfg.per_call_overhead = klass.layer_overhead;
            cfg.collective_location = klass.location;
            cfg.barrier_algorithm = klass.algorithm;
            cfg.gb_dimension = klass.gb_dimension;
            cfg.barrier_deadline = klass.deadline;
            me.comm = std::make_unique<mpi::Communicator>(*me.port, list, cfg);
          }
        }
      }
    }
  }

  for (JobRun& jr : st.jobs) {
    for (std::size_t m = 0; m < jr.members.size(); ++m) {
      cluster.sim().spawn(member_proc(st, jr, m));
    }
  }
  cluster.sim().run();
  cluster.snapshot_metrics();

  // --- Reduce into the Report -------------------------------------------------
  Report rep;
  rep.jobs.reserve(job_count);
  sim::SimTime makespan{0};
  for (const JobRun& jr : st.jobs) {
    JobReport j;
    j.klass = jr.klass->name;
    j.job = jr.job_index;
    j.nodes = jr.klass->nodes;
    j.arrival_us = jr.arrival.us();
    sim::SimTime begin{0}, end{0};
    for (const MemberRun& me : jr.members) {
      if (me.start > begin) begin = me.start;
      if (me.end > end) end = me.end;
      if (!me.finished) ++j.failures;  // stalled member (hung collective)
    }
    j.start_us = begin.us();
    j.end_us = end.us();
    j.experiment_mean_us = (end - begin).us() / jr.klass->iterations;
    j.latency = jr.latency->stats();
    j.failures += jr.failures;
    j.degraded_collectives = jr.degraded;
    j.group_created = jr.group_created;
    j.group_destroyed = jr.group_destroyed;
    j.group_promotions = jr.group_promotions;
    for (const CollectiveKind k : jr.schedule) {
      ++j.collectives[static_cast<std::size_t>(k)];
    }
    rep.total_failures += j.failures;
    rep.degraded_collectives += j.degraded_collectives;
    rep.group_promotions += j.group_promotions;
    if (j.group_created) ++rep.groups_created;
    if (j.group_destroyed) ++rep.groups_destroyed;
    if (jr.end > makespan) makespan = jr.end;
    if (end > makespan) makespan = end;
    rep.jobs.push_back(std::move(j));
  }
  rep.makespan_us = makespan.us();
  for (std::size_t k = 0; k < kCollectiveKindCount; ++k) {
    rep.per_kind[k] = st.per_kind[k]->stats();
  }
  rep.overall = st.overall->stats();

  // Fabric / NIC occupancy out of the metrics registry.
  const sim::telemetry::MetricsRegistry& m = cp.telemetry->metrics();
  sim::Accumulator link_util, nic_util, pci_util;
  for (const auto& [name, value] : m.gauges()) {
    const bool util = name.size() > 12 && name.rfind(".utilisation") == name.size() - 12;
    if (!util) continue;
    if (name.rfind("link.", 0) == 0) {
      link_util.add(value);
      if (value > rep.max_link_utilisation) rep.max_link_utilisation = value;
    } else if (name.rfind("nic", 0) == 0 && name.find(".proc.") != std::string::npos) {
      nic_util.add(value);
      if (value > rep.max_nic_occupancy) rep.max_nic_occupancy = value;
    } else if (name.rfind("node", 0) == 0 && name.find(".pci.") != std::string::npos) {
      pci_util.add(value);
    }
  }
  rep.mean_link_utilisation = link_util.mean();
  rep.mean_nic_occupancy = nic_util.mean();
  rep.mean_pci_utilisation = pci_util.mean();
  for (const auto& [name, value] : m.counters()) {
    auto ends_with = [&name](const char* suffix) {
      const std::string s = suffix;
      return name.size() > s.size() && name.rfind(s) == name.size() - s.size();
    };
    if (name.rfind("link.", 0) == 0) {
      if (ends_with(".stalls")) rep.link_stalls += value;
      if (ends_with(".dropped")) rep.link_packets_dropped += value;
    } else if (name.rfind("nic", 0) == 0) {
      if (ends_with(".barriers_completed")) rep.barriers_completed += value;
      if (ends_with(".reduces_completed")) rep.reduces_completed += value;
      if (ends_with(".retransmissions")) rep.retransmissions += value;
      if (ends_with(".slots.allocations")) rep.slot_allocations += value;
      if (ends_with(".slots.rejections")) rep.slot_rejections += value;
      if (ends_with(".slots.frees")) rep.slot_frees += value;
      if (ends_with(".slots.high_water") && value > rep.slot_high_water) {
        rep.slot_high_water = value;
      }
      if (ends_with(".stale_group_fenced")) rep.stale_group_fenced += value;
    }
  }

  if (slo_out != nullptr) {
    std::vector<std::vector<SloSample>> samples(job_count);
    std::vector<std::vector<nic::Endpoint>> endpoints(job_count);
    for (std::size_t j = 0; j < job_count; ++j) {
      samples[j] = std::move(st.jobs[j].slo_samples);
      endpoints[j] = std::move(st.jobs[j].endpoints);
    }
    *slo_out = compute_slo(spec_, samples, endpoints, cp.telemetry->causal());
  }
  return rep;
}

Report run_workload(const WorkloadSpec& spec) { return Driver(spec).run(); }

}  // namespace nicbar::wl
