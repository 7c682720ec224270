#include "sim/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
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

// --- Trace export from the span record ------------------------------------------

namespace {

using causal::Resource;

/// The category (for the mask) and the JSON "cat" of each Resource; fault
/// instants show under any mask.
struct Style {
  TraceCategory mask;
  const char* cat;
};
constexpr Style kStyles[] = {
    {TraceCategory::kAll, ""},     {TraceCategory::kAll, ""},     {TraceCategory::kSdma, "nic"},
    {TraceCategory::kSend, "nic"}, {TraceCategory::kRecv, "nic"}, {TraceCategory::kRdma, "nic"},
    {TraceCategory::kRdma, "pci"}, {TraceCategory::kAll, "fault"}, {TraceCategory::kNet, "net"},
    {TraceCategory::kNet, "net"}};
static_assert(std::size(kStyles) == static_cast<std::size_t>(Resource::kSwitch) + 1);
const Style& style(Resource r) { return kStyles[static_cast<std::size_t>(r)]; }

/// "nic3/recv", "node3/pci", "link/t3->sw0", "switch/sw0".
std::string track_name(const causal::Fabric& fabric, Resource r, std::uint32_t id) {
  const std::string n = std::to_string(id);
  switch (r) {
    case Resource::kPci: return "node" + n + "/pci";
    case Resource::kLink: return "link/" + (id < fabric.links.size() ? fabric.links[id] : n);
    case Resource::kSwitch: return "switch/sw" + n;
    default: return "nic" + n + "/" + causal::to_string(r);
  }
}

}  // namespace

void trace_spans(causal::CausalTracer& spans, TraceEventSink& sink) {
  spans.canonicalize();
  const std::size_t n = spans.span_count();
  // The described fabric's tracks first, in a fixed order, so track ids
  // never depend on which resource happened to be used first; anything
  // else gets a track where it first appears.
  const causal::Fabric& fabric = spans.fabric;
  for (std::uint32_t node = 0; node < fabric.nodes; ++node) {
    for (int r = static_cast<int>(Resource::kSdma); r <= static_cast<int>(Resource::kFault); ++r) {
      (void)sink.track(track_name(fabric, static_cast<Resource>(r), node));
    }
  }
  for (std::uint32_t l = 0; l < fabric.links.size(); ++l) {
    (void)sink.track(track_name(fabric, Resource::kLink, l));
  }
  for (std::uint32_t sw = 0; sw < fabric.switches; ++sw) {
    (void)sink.track(track_name(fabric, Resource::kSwitch, sw));
  }

  // via[id]: the drawn slices a flow into span `id`'s descendants starts
  // from — the span itself if it is one, else the nearest ones up its
  // parent chains (parents precede children in canonical order).
  std::vector<std::vector<causal::SpanId>> via(n + 1);
  std::vector<int> track(n + 1, -1);
  std::uint64_t flow = 0;
  for (causal::SpanId id = 1; id <= n; ++id) {
    const causal::Span& s = *spans.span(id);
    const TraceCategory cat = style(s.res).mask;
    const bool drawn = s.res >= Resource::kSdma;  // not the host, not a join
    const bool point = s.res == Resource::kFault || s.res == Resource::kSwitch;
    if (drawn) {
      track[id] = sink.track(
          track_name(fabric, s.res, s.res >= Resource::kLink ? s.unit : s.node));
    }
    std::vector<causal::SpanId> from;
    for (const causal::SpanId p : s.parents) {
      for (const causal::SpanId a : via[p]) {
        if (std::find(from.begin(), from.end(), a) == from.end()) from.push_back(a);
      }
    }
    if (!drawn || point || (sink.mask() & static_cast<std::uint32_t>(cat)) == 0) {
      if (point) sink.instant(track[id], s.label, s.start, style(s.res).cat, cat);
      via[id] = std::move(from);
      continue;
    }
    for (const causal::SpanId a : from) {
      if (track[a] == track[id]) continue;
      const causal::Span& src = *spans.span(a);
      sink.flow_start(track[a], "causal", src.start, ++flow, style(src.res).cat,
                      style(src.res).mask);
      sink.flow_end(track[id], "causal", s.start, flow, style(s.res).cat, cat);
    }
    sink.duration(track[id], s.label, s.start, s.busy_end - s.start, style(s.res).cat, cat,
                  s.key);
    via[id] = {id};
  }
}

// --- Telemetry ------------------------------------------------------------------

Telemetry::Telemetry() = default;
Telemetry::~Telemetry() = default;

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
