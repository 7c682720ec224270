#include "sim/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "sim/causal.hpp"
#include "sim/names.hpp"

namespace nicbar::sim {

std::optional<std::uint32_t> parse_trace_mask(std::string_view spec) {
  std::uint32_t mask = 0;
  for (std::size_t pos = 0; pos <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const TraceCategoryName* c = find_named(kTraceCategoryNames, spec.substr(pos, comma - pos));
    if (c == nullptr) return std::nullopt;
    mask |= static_cast<std::uint32_t>(c->category);
    pos = comma + 1;
  }
  return mask;
}

std::string trace_mask_names() { return join(distinct_names(kTraceCategoryNames), ",", ","); }

}  // namespace nicbar::sim

namespace nicbar::sim::telemetry {

// --- MetricsRegistry ----------------------------------------------------------

Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                      std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(lo, hi, bins)).first;
  }
  return it->second;
}

const std::uint64_t* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const double* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  char buf[128];
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%.6f", v);
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"count\": %" PRIu64
                  ", \"lo\": %.6f, \"hi\": %.6f, \"p50\": %.6f, \"p90\": %.6f, "
                  "\"p99\": %.6f}",
                  h.count(), h.lo(), h.hi(), h.percentile(50), h.percentile(90),
                  h.percentile(99));
    os << "\n    \"" << json_escape(name) << "\": " << buf;
  }
  os << "\n  }\n}\n";
}

// --- TraceEventSink -----------------------------------------------------------

int TraceEventSink::track(const std::string& name) {
  const auto it = tracks_.find(name);
  if (it != tracks_.end()) return it->second;
  const int id = static_cast<int>(track_names_.size());
  tracks_.emplace(name, id);
  track_names_.push_back(name);
  return id;
}

void TraceEventSink::duration(int track_id, const char* name, SimTime start, Duration dur,
                              const char* category, TraceCategory cat, std::uint64_t id) {
  if (!pass(cat)) return;
  events_.push_back(Event{'X', track_id, name, category, start.ps(), dur.ps(), id});
}

void TraceEventSink::instant(int track_id, const char* name, SimTime at,
                             const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'i', track_id, name, category, at.ps(), 0, 0});
}

void TraceEventSink::flow_start(int track_id, const char* name, SimTime at, std::uint64_t id,
                                const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'s', track_id, name, category, at.ps(), 0, id});
}

void TraceEventSink::flow_end(int track_id, const char* name, SimTime at, std::uint64_t id,
                              const char* category, TraceCategory cat) {
  if (!pass(cat)) return;
  events_.push_back(Event{'f', track_id, name, category, at.ps(), 0, id});
}

std::size_t TraceEventSink::events_on(int track_id) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (e.track == track_id) ++n;
  }
  return n;
}

void TraceEventSink::write_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  // Thread-name metadata: one named track ("thread") per registered track,
  // all under pid 0; Perfetto renders them as separate rows.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": " << i
       << ", \"args\": {\"name\": \"" << json_escape(track_names_[i]) << "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) os << ",\n";
    first = false;
    if (e.phase == 'X') {
      if (e.id != 0) {
        std::snprintf(buf, sizeof buf,
                      "  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                      "}}",
                      e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6,
                      static_cast<double>(e.dur_ps) * 1e-6, e.id);
      } else {
        std::snprintf(buf, sizeof buf,
                      "  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                      e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6,
                      static_cast<double>(e.dur_ps) * 1e-6);
      }
    } else if (e.phase == 's') {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"s\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6, e.id);
    } else if (e.phase == 'f') {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"%s\", \"cat\": \"%s\", "
                    "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"id\": %" PRIu64 "}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6, e.id);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  {\"ph\": \"i\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"s\": \"t\"}",
                    e.name, e.category, e.track, static_cast<double>(e.ts_ps) * 1e-6);
    }
    os << buf;
  }
  os << "\n]}\n";
}

// --- BreakdownCollector --------------------------------------------------------

void BreakdownCollector::barrier_posted(std::uint32_t node, std::uint16_t port,
                                        std::uint32_t epoch, SimTime at, Duration host_cost) {
  Pending& p = pending_[key(node, port, epoch)];
  p.t0 = at;
  p.posted = true;
  p.host += host_cost;
}

void BreakdownCollector::add_host(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                                  Duration d) {
  pending_[key(node, port, epoch)].host += d;
}

void BreakdownCollector::add_nic(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                                 Duration d) {
  pending_[key(node, port, epoch)].nic += d;
}

void BreakdownCollector::add_dma(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                                 Duration d) {
  pending_[key(node, port, epoch)].dma += d;
}

void BreakdownCollector::add_wire(std::uint32_t node, std::uint16_t port, std::uint32_t epoch,
                                  Duration d) {
  pending_[key(node, port, epoch)].wire += d;
}

void BreakdownCollector::barrier_completed(std::uint32_t node, std::uint16_t port,
                                           std::uint32_t epoch, SimTime at,
                                           Duration host_cost) {
  const auto it = pending_.find(key(node, port, epoch));
  if (it == pending_.end() || !it->second.posted) return;  // never saw the post
  Pending p = it->second;
  pending_.erase(it);
  p.host += host_cost;

  CostBreakdown b;
  b.total_us = (at - p.t0).us();
  b.host_us = p.host.us();
  b.nic_us = p.nic.us();
  b.dma_us = p.dma.us();
  b.wire_us = p.wire.us();
  b.wait_us = b.total_us - b.host_us - b.nic_us - b.dma_us - b.wire_us;
  last_ = b;

  host_.add(b.host_us);
  nic_.add(b.nic_us);
  dma_.add(b.dma_us);
  wire_.add(b.wire_us);
  wait_.add(b.wait_us);
  total_.add(b.total_us);
  ++count_;
}

CostBreakdown BreakdownCollector::mean() const {
  CostBreakdown b;
  if (count_ == 0) return b;
  b.host_us = host_.mean();
  b.nic_us = nic_.mean();
  b.dma_us = dma_.mean();
  b.wire_us = wire_.mean();
  b.total_us = total_.mean();
  // The residual keeps the invariant sum == total exactly, even after the
  // independent means round differently.
  b.wait_us = b.total_us - b.host_us - b.nic_us - b.dma_us - b.wire_us;
  return b;
}

void BreakdownCollector::snapshot(MetricsRegistry& m) const {
  const CostBreakdown b = mean();
  m.counter("breakdown.barriers") = barriers();
  m.gauge("breakdown.host_us") = b.host_us;
  m.gauge("breakdown.nic_us") = b.nic_us;
  m.gauge("breakdown.dma_us") = b.dma_us;
  m.gauge("breakdown.wire_us") = b.wire_us;
  m.gauge("breakdown.wait_us") = b.wait_us;
  m.gauge("breakdown.total_us") = b.total_us;
}

// --- Telemetry ------------------------------------------------------------------

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

TraceEventSink& Telemetry::enable_trace() {
  if (!trace_) trace_ = std::make_unique<TraceEventSink>();
  return *trace_;
}

BreakdownCollector& Telemetry::enable_breakdown() {
  if (!breakdown_) breakdown_ = std::make_unique<BreakdownCollector>();
  return *breakdown_;
}

causal::CausalTracer& Telemetry::enable_causal() {
  if (!causal_) causal_ = std::make_unique<causal::CausalTracer>();
  return *causal_;
}

// --- JSON helpers ---------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace nicbar::sim::telemetry
