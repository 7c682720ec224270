// Causal span tracing and critical-path attribution: the simulator's one
// instrumentation record.
//
// Every firmware job, DMA transfer, link and switch hop, fault, and host
// wakeup records a Span with edges to the spans it causally waited on
// (packet-id / event-id provenance threaded through net::Packet,
// nic::BarrierToken, nic::RecordExtra, and nic::GmEvent). Each completed
// barrier therefore yields a dependency DAG rooted at the host's completion
// (the sink) and terminating at the host's post (the origin).
//
// From the DAG we compute the exact critical path: walking back from the
// sink, the critical parent of a span is the parent whose end time is
// latest; the span's own duration is attributed to its Segment as `self`
// and the gap between the critical parent's end and the span's start as
// `queue` (resource contention: the engine, bus, or wire was busy). By
// construction self + queue telescopes to exactly end(sink) - start(origin),
// so the attribution is complete to the picosecond — in the contention-free
// regime each segment total equals the matching Eq. 1-2 closed-form term.
//
// Id invariant: every edge points from a span to a span with a strictly
// smaller id (parents are always recorded first; joins discovered later are
// attached with add_parent, which preserves the invariant because the
// parent already exists). verify_acyclic() checks it, which proves the
// graph is a DAG.
//
// Each span also notes the Resource it held (an MCP engine, the PCI bus, a
// link, a switch, the host CPU), so every view is a fold of this one record:
// `--critical-path` walks it, `--breakdown` groups the walk into the Eq. 1-2
// rows (breakdown()), and `--trace-json` draws one Perfetto track per
// resource (telemetry::trace_spans).
//
// Hardware models cache a raw pointer that is null by default; every hook is
// one branch; recording never reads or perturbs simulation state, so results
// are bit-identical with tracing on or off.
//
// Partitioned (PDES) runs: enable_sharding(K) gives each lane a private
// span arena (selected via a thread-local shard index that the partitioned
// run sets before executing each lane), so recording stays lock-free. Ids
// are then (shard, local index) encodings, cross-shard parents are legal,
// and complete_barrier defers its total. After the run, canonicalize()
// merges the shards and renumbers every span by *content* (a deterministic
// topological order keyed on end/start/segment/node/label/packet-id), which
// yields the exact same ids, parents, and totals as a canonicalized serial
// run — the causal half of the PDES bit-identity guarantee. Serial runs that
// want to diff against partitioned ones must call canonicalize() too;
// legacy callers that never touch it see the original record-order ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace nicbar::sim::causal {

/// Where a span's time was spent, aligned with the Eq. 1-2 cost terms.
enum class Segment : std::uint8_t {
  kHost = 0,   // host library CPU (post + completion processing)
  kSdma = 1,   // SDMA engine: token detect / host -> NIC DMA
  kSend = 2,   // SEND engine: packet -> wire
  kWire = 3,   // link serialisation + propagation
  kSwitch = 4, // switch routing
  kRecv = 5,   // RECV engine: wire -> NIC processing
  kFirmware = 6,  // LANai barrier firmware decisions (init, advance, gather)
  kRdma = 7,   // RDMA engine + completion PCI DMA (NIC -> host)
  kRep = 8,    // hierarchical barrier: representative hop between levels
               // (gather satisfied -> exchange begun, exchange settled ->
               // release broadcast), marked inside the NIC firmware
};
inline constexpr std::size_t kSegmentCount = 9;

[[nodiscard]] const char* to_string(Segment s);

/// The hardware a span held while it ran, which names its Perfetto track.
/// kNone marks the firmware's zero-length joins and hand-offs.
enum class Resource : std::uint8_t {
  kNone = 0,
  kHost,    // the node's host CPU
  kSdma,    // kSdma..kRdma: one MCP engine's share of the node's LANai
  kSend,    //   processor, in nic::McpEngine order
  kRecv,
  kRdma,
  kPci,     // the node's PCI bus
  kFault,   // the NIC's fault log: crash, restart, peer death (zero-length)
  kLink,    // a directed link's wire (Span::unit is the link's uid)
  kSwitch,  // a crossbar's routing pipeline (Span::unit is the switch id)
};

/// "sdma", "pci", "link", ...; "" for kNone.
[[nodiscard]] const char* to_string(Resource r);

/// Span ids are 1-based and monotonically increasing; 0 means "no span" and
/// is the default value of every threaded provenance field.
using SpanId = std::uint64_t;

struct Span {
  SpanId id = 0;
  Segment seg = Segment::kHost;
  Resource res = Resource::kNone;
  std::uint32_t node = 0;
  const char* label = "";  // static strings only (call sites use literals)
  SimTime start{0};
  SimTime end{0};
  // `res` is held over [start, busy_end]: the whole span, except that a
  // delivered wire span runs on through the link's propagation delay and a
  // switch span holds nothing (routing is pipelined), so busy_end = start.
  SimTime busy_end{0};
  std::uint32_t unit = 0;  // the link uid or switch id of a fabric span
  // Content tiebreak for canonical ordering: the fabric-unique packet id for
  // wire/switch spans (two packets can occupy different links over identical
  // windows), 0 for node-local spans (which the (node, shard) pairing
  // already orders deterministically).
  std::uint64_t key = 0;
  std::vector<SpanId> parents{};
};

/// One step of a critical path, origin-first.
struct PathStep {
  SpanId span = 0;
  Segment seg = Segment::kHost;
  Resource res = Resource::kNone;
  std::uint32_t node = 0;
  const char* label = "";
  Duration self{0};   // end - start
  Duration queue{0};  // start - end(critical parent); 0 for the origin
};

/// An exact critical path: steps from origin to sink with per-segment
/// attribution. self[] + queue[] sum to `total` exactly.
struct CriticalPath {
  std::vector<PathStep> steps;
  Duration total{0};  // end(sink) - start(origin)
  Duration self[kSegmentCount]{};
  Duration queue[kSegmentCount]{};

  [[nodiscard]] Duration attributed() const {
    Duration d{0};
    for (std::size_t s = 0; s < kSegmentCount; ++s) d += self[s] + queue[s];
    return d;
  }
};

/// A completed barrier as seen by one member: its sink span plus the
/// (node, port, epoch) key the rest of the stack uses.
struct CompletedBarrier {
  std::uint32_t node = 0;
  std::uint16_t port = 0;
  std::uint32_t epoch = 0;
  SpanId sink = 0;
  Duration total{0};  // end(sink) - start(origin) at completion time
};

/// Aggregated critical-path attribution over a set of completed barriers.
struct PathProfile {
  std::uint64_t barriers = 0;
  Duration total{0};  // sum of per-barrier totals
  Duration self[kSegmentCount]{};
  Duration queue[kSegmentCount]{};
  /// Hot contributors: (node, segment) -> self + queue on the critical path.
  std::map<std::pair<std::uint32_t, std::uint8_t>, Duration> by_node_segment;

  [[nodiscard]] Duration attributed() const {
    Duration d{0};
    for (std::size_t s = 0; s < kSegmentCount; ++s) d += self[s] + queue[s];
    return d;
  }
};

/// The fabric the spans run on, named for the trace's track list.
struct Fabric {
  std::size_t nodes = 0;
  std::vector<std::string> links;  // by uid
  std::size_t switches = 0;
};

/// Critical paths grouped into the rows of Eq. 1-2, summed over barriers:
/// host CPU, NIC processing (engine spans), DMA (PCI spans), wire (link and
/// switch spans), and the queueing between spans. The rows add up to `total`
/// exactly.
struct Breakdown {
  std::uint64_t barriers = 0;
  Duration host{0}, nic{0}, dma{0}, wire{0}, queue{0}, total{0};
};

class CausalTracer {
 public:
  CausalTracer() : shard_spans_(1), shard_completed_(1) {}

  /// Grows to `shards` private span arenas (>= 1); existing arenas — in
  /// particular shard 0, where canonicalize() collapsed a previous run —
  /// are preserved. Each recording thread must announce its arena with
  /// set_current_shard before recording; a partitioned run does this per
  /// lane per window.
  void enable_sharding(std::size_t shards);

  /// Binds this thread's subsequent record/complete_barrier calls to arena
  /// `shard`. Thread-local; irrelevant while only one shard exists.
  static void set_current_shard(std::size_t shard);

  /// Merges shards and renumbers every span into the canonical content
  /// order: a topological numbering that prefers the smallest
  /// (end, start, segment, node, label, key) among ready spans. Deferred
  /// barrier totals are computed, completions sorted by sink. After this
  /// the tracer is single-arena with dense 1-based ids and
  /// verify_acyclic()'s parent-id < span-id invariant restored. Two runs of
  /// the same model canonicalize to bit-identical state regardless of
  /// partition or worker count.
  void canonicalize();

  /// Records `s` and returns its id (which, like its parent list, is
  /// assigned here). `s.label` must be a string literal. Up to two parents
  /// at record time; later joins go through add_parent.
  SpanId record(Span s, SpanId parent = 0, SpanId parent2 = 0);
  /// The same for a span [start, end] that holds no resource.
  SpanId record(Segment seg, std::uint32_t node, const char* label, SimTime start,
                SimTime end, SpanId parent = 0, SpanId parent2 = 0) {
    return record(Span{.seg = seg, .node = node, .label = label, .start = start, .end = end,
                       .busy_end = end},
                  parent, parent2);
  }

  /// Attaches another causal parent to an existing span (a join discovered
  /// after the span was recorded, e.g. the firmware consuming a previously
  /// recorded bit). No-ops on id 0.
  void add_parent(SpanId span, SpanId parent);

  /// Marks `sink` as the completion span of barrier (node, port, epoch); the
  /// barrier's DAG is the ancestor closure of the sink.
  void complete_barrier(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                        SpanId sink);

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const std::vector<Span>& s : shard_spans_) n += s.size();
    return n;
  }
  [[nodiscard]] const Span* span(SpanId id) const {
    const std::size_t shard = static_cast<std::size_t>(id >> kShardShift);
    const std::uint64_t idx = id & kIdxMask;
    if (shard >= shard_spans_.size() || idx == 0 || idx > shard_spans_[shard].size()) {
      return nullptr;
    }
    return &shard_spans_[shard][idx - 1];
  }
  /// Completed barriers. While multiple shards exist this is shard 0's view
  /// only — canonicalize() merges (and sorts) the rest.
  [[nodiscard]] const std::vector<CompletedBarrier>& completed() const {
    return shard_completed_[0];
  }

  /// Exact critical path from `sink` back to its origin.
  [[nodiscard]] CriticalPath critical_path(SpanId sink) const;

  /// Aggregates critical paths over completed barriers whose total latency
  /// is at or above the `min_percentile`-th percentile of all completed
  /// totals (0 = every barrier, 99 = the slowest 1%).
  [[nodiscard]] PathProfile profile(double min_percentile = 0.0) const;

  /// Aggregates critical paths over an explicit set of completed barriers.
  [[nodiscard]] PathProfile profile_of(const std::vector<CompletedBarrier>& barriers) const;

  /// Every completed barrier's critical path, grouped into the Eq. 1-2 rows.
  [[nodiscard]] Breakdown breakdown() const;

  /// True when every edge satisfies parent-id < span-id, which proves the
  /// span graph is acyclic.
  [[nodiscard]] bool verify_acyclic() const;

  void clear();

  /// Set by net::Network::set_causal.
  Fabric fabric;

 private:
  // Span ids encode (shard, 1-based local index); shard 0 ids are therefore
  // plain 1..n, which keeps single-arena (legacy and post-canonicalize)
  // behaviour byte-compatible with the original sequential scheme.
  static constexpr std::uint64_t kShardShift = 40;
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kShardShift) - 1;

  void fold(const CriticalPath& path, PathProfile& out) const;
  [[nodiscard]] std::size_t record_shard() const;

  std::vector<std::vector<Span>> shard_spans_;
  std::vector<std::vector<CompletedBarrier>> shard_completed_;
};

}  // namespace nicbar::sim::causal
