// Simulation telemetry: the metrics registry, the causal span record, and
// the Chrome trace-event export drawn from that record.
//
//   MetricsRegistry — named counters, gauges, and Histogram-backed timers.
//                     Hardware models register their counters at snapshot
//                     time; benches and tools serialise it as JSON.
//   CausalTracer    — (sim/causal.hpp) the one hook the hardware models
//                     call: a span per job, noting the resource it held.
//   TraceEventSink  — buffers duration ("X"), instant ("i") and flow events
//                     in Chrome trace-event format, loadable in Perfetto or
//                     chrome://tracing. trace_spans() fills it from the span
//                     record; nothing in the model writes to it.
//
// Telemetry bundles the registry and the record; a Cluster attaches one to
// every hardware model it builds.
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

/// The classes of event trace_spans() draws; `--trace-mask` selects them.
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

// --- Bundle ---------------------------------------------------------------------

/// What a Cluster hands to its hardware models. The metrics registry is
/// always present (filling it is a snapshot-time operation, not a hot-path
/// one); the span record is created on demand so models can cache the raw
/// pointer and keep the disabled path to one branch.
class Telemetry {
 public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  causal::CausalTracer& enable_causal();
  [[nodiscard]] causal::CausalTracer* causal() const { return causal_.get(); }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<causal::CausalTracer> causal_;
};

/// Draws the span record into `sink`, after canonicalizing it so a serial
/// and a partitioned run draw the same file. Tracks follow the fabric: for
/// each NIC its four MCP engines, its PCI bus and its fault log, then every
/// link, then every switch. A span that held an engine, the bus or a link is
/// one slice over the time it held it; switch and fault spans are instants;
/// host spans and firmware joins are not drawn. Each slice gets a flow from
/// the nearest drawn slice on every parent chain that ends on another track.
/// The sink's mask filters by category (switches count as `net`).
void trace_spans(causal::CausalTracer& spans, TraceEventSink& sink);

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes,
/// and control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace nicbar::sim::telemetry
