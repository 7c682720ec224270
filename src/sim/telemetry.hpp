// Simulation telemetry: metrics registry, per-barrier cost breakdown, and
// Chrome trace-event export.
//
// Three cooperating pieces, all optional and all zero-cost when detached
// (hardware models hold raw pointers that are null by default; every hook is
// one branch):
//
//   MetricsRegistry    — named counters, gauges, and Histogram-backed timers.
//                        Hardware models register their counters at snapshot
//                        time; benches and tools serialise it as JSON.
//   TraceEventSink     — buffers duration ("X") and instant ("i") events in
//                        Chrome trace-event format, one track per host /
//                        NIC engine / link, loadable in Perfetto or
//                        chrome://tracing.
//   BreakdownCollector — attributes each completed barrier's latency to the
//                        paper's Eq. 1-2 components (host software, NIC
//                        processing, DMA, wire) plus a wait/overlap residual,
//                        so the terms always sum to the measured total.
//
// Telemetry bundles the three; a Cluster attaches one to every hardware
// model it builds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nicbar::sim {

namespace causal {
class CausalTracer;
}

/// The classes of event the TraceEventSink emits; `--trace-mask` selects them.
enum class TraceCategory : std::uint32_t {
  kSdma = 1u << 0,  // SDMA engine (host -> NIC)
  kSend = 1u << 1,  // SEND engine (NIC -> wire)
  kRecv = 1u << 2,  // RECV engine (wire -> NIC)
  kRdma = 1u << 3,  // RDMA engine (NIC -> host)
  kNet = 1u << 4,   // links and switches
  kAll = 0xffffffffu,
};
struct TraceCategoryName { TraceCategory category; std::string_view name; };
inline constexpr TraceCategoryName kTraceCategoryNames[] = {
    {TraceCategory::kSdma, "sdma"}, {TraceCategory::kSend, "send"},
    {TraceCategory::kRecv, "recv"}, {TraceCategory::kRdma, "rdma"},
    {TraceCategory::kNet, "net"},   {TraceCategory::kAll, "all"}};

/// The bit mask of a comma-separated list of kTraceCategoryNames
/// ("send,recv"); nullopt on an unknown or empty element.
[[nodiscard]] std::optional<std::uint32_t> parse_trace_mask(std::string_view spec);
/// "sdma,send,recv,rdma,net,all", for help text and refusals.
[[nodiscard]] std::string trace_mask_names();

}  // namespace nicbar::sim

namespace nicbar::sim::telemetry {

// --- MetricsRegistry ----------------------------------------------------------

/// Named counters (monotonic uint64), gauges (double), and histogram-backed
/// timers. Names are hierarchical dotted paths ("nic0.engine.sdma.jobs").
/// Storage is a std::map so JSON output is deterministically ordered and
/// references returned by the accessors stay stable.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it at zero on first use.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }

  /// Returns the gauge named `name`, creating it at zero on first use.
  double& gauge(const std::string& name) { return gauges_[name]; }

  /// Returns the histogram named `name`, creating it with the given range on
  /// first use (later calls ignore the range arguments).
  Histogram& histogram(const std::string& name, double lo = 0.0, double hi = 1000.0,
                       std::size_t bins = 100);

  /// Lookup without creation; nullptr if absent.
  [[nodiscard]] const std::uint64_t* find_counter(const std::string& name) const;
  [[nodiscard]] const double* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  void clear();

  /// Serialises every metric as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  ///    "p50":..,"p90":..,"p99":..},...}}
  void write_json(std::ostream& os) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const { return gauges_; }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// --- TraceEventSink -----------------------------------------------------------

/// Buffers Chrome trace-event JSON (the Perfetto/chrome://tracing format).
/// Tracks map to trace "threads": register one per host, NIC engine, or link
/// with track(), then emit duration/instant events against the track id.
///
/// Every event optionally carries a stable causal id (a fabric-unique packet
/// id or causal span id) and a TraceCategory; the sink-level mask filters by
/// category at emission time so `--trace-mask` applies end-to-end. Paired
/// flow events ("s"/"f") with equal ids render as arrows in Perfetto.
class TraceEventSink {
 public:
  /// Registers (or finds) a named track; returns its stable id.
  int track(const std::string& name);

  /// Restricts subsequent emissions to categories in `mask` (default: all).
  void set_mask(std::uint32_t mask) { mask_ = mask; }
  [[nodiscard]] std::uint32_t mask() const { return mask_; }

  /// A completed span ("X" event) of `dur` starting at `start`. A non-zero
  /// `id` is emitted as args.id (the packet/span provenance of the event).
  void duration(int track_id, const char* name, SimTime start, Duration dur,
                const char* category = "sim", TraceCategory cat = TraceCategory::kAll,
                std::uint64_t id = 0);

  /// A point-in-time marker ("i" event).
  void instant(int track_id, const char* name, SimTime at, const char* category = "sim",
               TraceCategory cat = TraceCategory::kAll);

  /// Flow-event pair: a "s" (start) on the producing track and a "f" with
  /// bp:"e" (end, bound to the enclosing slice) on the consuming track,
  /// matched by `id`. Use the fabric-unique packet id so the arrow follows
  /// one packet from SEND engine to RECV engine.
  void flow_start(int track_id, const char* name, SimTime at, std::uint64_t id,
                  const char* category = "sim", TraceCategory cat = TraceCategory::kAll);
  void flow_end(int track_id, const char* name, SimTime at, std::uint64_t id,
                const char* category = "sim", TraceCategory cat = TraceCategory::kAll);

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::size_t track_count() const { return track_names_.size(); }
  [[nodiscard]] const std::vector<std::string>& track_names() const { return track_names_; }

  /// Number of events recorded against one track.
  [[nodiscard]] std::size_t events_on(int track_id) const;

  /// Writes {"traceEvents":[...]} — thread_name metadata first, then every
  /// buffered event. Timestamps are microseconds of simulated time.
  void write_json(std::ostream& os) const;

 private:
  struct Event {
    char phase;  // 'X', 'i', 's', or 'f'
    int track;
    const char* name;      // static strings only (call sites use literals)
    const char* category;  // static strings only
    std::int64_t ts_ps;
    std::int64_t dur_ps;
    std::uint64_t id;  // causal packet/span id; 0 = none
  };
  [[nodiscard]] bool pass(TraceCategory cat) const {
    return (mask_ & static_cast<std::uint32_t>(cat)) != 0;
  }
  std::vector<Event> events_;
  std::map<std::string, int> tracks_;
  std::vector<std::string> track_names_;
  std::uint32_t mask_ = static_cast<std::uint32_t>(TraceCategory::kAll);
};

// --- Per-barrier cost breakdown ------------------------------------------------

/// One barrier's latency decomposed into the paper's Eq. 1-2 terms. The five
/// components sum to total_us exactly: wait_us is defined as the residual
/// (time the critical path spent blocked on peers, or negative overlap when
/// wire/NIC activity ran concurrently).
struct CostBreakdown {
  double host_us = 0.0;  // Send + HRecv: host library CPU time
  double nic_us = 0.0;   // LANai firmware cycles (all four MCP engines)
  double dma_us = 0.0;   // PCI bus transfers (completion RDMA et al.)
  double wire_us = 0.0;  // links + switch routing for packets we waited on
  double wait_us = 0.0;  // residual: peer skew minus pipelining overlap
  double total_us = 0.0;

  [[nodiscard]] double sum_us() const {
    return host_us + nic_us + dma_us + wire_us + wait_us;
  }
};

/// Accumulates per-barrier cost attributions keyed by (node, port, epoch).
/// The gm layer reports the host-side begin/end; the NIC firmware reports
/// cycle, DMA, and wire charges as they happen; on completion the record is
/// folded into component accumulators.
class BreakdownCollector {
 public:
  /// Host posted the barrier token (the measurement origin); `host_cost` is
  /// the library call's CPU charge.
  void barrier_posted(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                      SimTime at, Duration host_cost);

  void add_host(std::uint32_t node, std::uint16_t port, std::uint32_t epoch, Duration d);
  void add_nic(std::uint32_t node, std::uint16_t port, std::uint32_t epoch, Duration d);
  void add_dma(std::uint32_t node, std::uint16_t port, std::uint32_t epoch, Duration d);
  void add_wire(std::uint32_t node, std::uint16_t port, std::uint32_t epoch, Duration d);

  /// Host consumed the completion event; `host_cost` is the receive-side CPU
  /// charge. Finalises and folds the record.
  void barrier_completed(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                         SimTime at, Duration host_cost);

  [[nodiscard]] std::uint64_t barriers() const { return static_cast<std::uint64_t>(count_); }

  /// Mean per-barrier breakdown over every completed barrier; components sum
  /// to total_us exactly.
  [[nodiscard]] CostBreakdown mean() const;

  /// The most recently completed barrier's breakdown.
  [[nodiscard]] const CostBreakdown& last() const { return last_; }

  /// Copies the component means into `m` under "breakdown.*" gauges.
  void snapshot(MetricsRegistry& m) const;

 private:
  struct Pending {
    SimTime t0{0};
    bool posted = false;
    Duration host{0}, nic{0}, dma{0}, wire{0};
  };
  static std::uint64_t key(std::uint32_t node, std::uint16_t port, std::uint32_t epoch) {
    return (static_cast<std::uint64_t>(node) << 48) |
           (static_cast<std::uint64_t>(port) << 32) | epoch;
  }

  std::map<std::uint64_t, Pending> pending_;
  Accumulator host_, nic_, dma_, wire_, wait_, total_;
  std::int64_t count_ = 0;
  CostBreakdown last_;
};

// --- Bundle ---------------------------------------------------------------------

/// What a Cluster hands to its hardware models. The metrics registry is
/// always present (filling it is a snapshot-time operation, not a hot-path
/// one); the trace sink and breakdown collector are created on demand so
/// models can cache the raw pointers and keep the disabled path to one
/// branch.
class Telemetry {
 public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  TraceEventSink& enable_trace();
  BreakdownCollector& enable_breakdown();
  causal::CausalTracer& enable_causal();

  [[nodiscard]] TraceEventSink* trace() const { return trace_.get(); }
  [[nodiscard]] BreakdownCollector* breakdown() const { return breakdown_.get(); }
  [[nodiscard]] causal::CausalTracer* causal() const { return causal_.get(); }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<TraceEventSink> trace_;
  std::unique_ptr<BreakdownCollector> breakdown_;
  std::unique_ptr<causal::CausalTracer> causal_;
};

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes,
/// and control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace nicbar::sim::telemetry
