// Telemetry layer: metrics registry, trace-event sink, and the end-to-end
// wiring through a real NIC-barrier experiment: the span record's breakdown
// and the Perfetto trace drawn from it.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coll/family.hpp"
#include "coll/runner.hpp"
#include "host/cluster.hpp"
#include "sim/causal.hpp"

namespace nicbar {
namespace {

using sim::causal::Breakdown;
using sim::causal::Resource;
using sim::telemetry::MetricsRegistry;
using sim::telemetry::Telemetry;
using sim::telemetry::TraceEventSink;

// --- A minimal JSON validity checker -------------------------------------------
//
// Enough of a recursive-descent parser to reject structurally broken output
// (unbalanced braces, missing commas, bad string escapes, malformed numbers).

struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (s[i] == '"') return string();
    if (s.compare(i, 4, "true") == 0) return i += 4, true;
    if (s.compare(i, 5, "false") == 0) return i += 5, true;
    if (s.compare(i, 4, "null") == 0) return i += 4, true;
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

bool valid_json(const std::string& s) {
  JsonChecker c{s};
  return c.document();
}

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsRegistryTest, CounterRegistrationAndLookup) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find_counter("nic0.acks_sent"), nullptr);

  m.counter("nic0.acks_sent") += 3;
  m.counter("nic0.acks_sent") += 2;
  ASSERT_NE(m.find_counter("nic0.acks_sent"), nullptr);
  EXPECT_EQ(*m.find_counter("nic0.acks_sent"), 5u);
  EXPECT_EQ(m.size(), 1u);

  m.gauge("pci.utilisation") = 0.25;
  ASSERT_NE(m.find_gauge("pci.utilisation"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("pci.utilisation"), 0.25);

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find_counter("nic0.acks_sent"), nullptr);
}

TEST(MetricsRegistryTest, HistogramKeepsFirstRange) {
  MetricsRegistry m;
  sim::Histogram& h = m.histogram("latency_us", 0.0, 200.0, 20);
  h.add(101.0);
  // Second call with different bounds must return the same histogram.
  sim::Histogram& again = m.histogram("latency_us", 0.0, 5.0, 2);
  EXPECT_EQ(&h, &again);
  EXPECT_DOUBLE_EQ(again.hi(), 200.0);
  EXPECT_EQ(again.count(), 1u);
}

TEST(MetricsRegistryTest, WriteJsonIsValidAndComplete) {
  MetricsRegistry m;
  m.counter("a.count") = 7;
  m.gauge("b.util") = 0.5;
  m.histogram("c.lat", 0.0, 10.0, 10).add(4.0);
  std::ostringstream os;
  m.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("b.util"), std::string::npos);
  EXPECT_NE(json.find("c.lat"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonEscapesSpecialCharacters) {
  EXPECT_EQ(sim::telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- TraceEventSink ------------------------------------------------------------

TEST(TraceEventSinkTest, TracksAreStableAndDeduplicated) {
  TraceEventSink t;
  const int a = t.track("nic0/sdma");
  const int b = t.track("nic0/send");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.track("nic0/sdma"), a);
  EXPECT_EQ(t.track_count(), 2u);
}

TEST(TraceEventSinkTest, RecordsDurationAndInstantEvents) {
  TraceEventSink t;
  const int a = t.track("link/x");
  const int b = t.track("link/y");
  t.duration(a, "tx", sim::SimTime{1000}, sim::Duration{500}, "net");
  t.duration(a, "tx", sim::SimTime{2000}, sim::Duration{500}, "net");
  t.instant(b, "drop", sim::SimTime{3000});
  EXPECT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.events_on(a), 2u);
  EXPECT_EQ(t.events_on(b), 1u);
}

TEST(TraceEventSinkTest, WriteJsonIsValidChromeTraceFormat) {
  TraceEventSink t;
  const int a = t.track("nic0/sdma");
  t.duration(a, "detect+setup", sim::SimTime{0} + sim::microseconds(1.5),
             sim::microseconds(2.0));
  t.instant(a, "fire", sim::SimTime{0} + sim::microseconds(9.0));
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // ts is microseconds of simulated time.
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.000"), std::string::npos);
}

TEST(TraceEventSinkTest, MaskFiltersAtEmissionTime) {
  TraceEventSink t;
  t.set_mask(static_cast<std::uint32_t>(sim::TraceCategory::kSdma));
  const int a = t.track("mcp0");
  t.duration(a, "keep", sim::SimTime{1000}, sim::Duration{500}, "sim",
             sim::TraceCategory::kSdma);
  t.duration(a, "drop", sim::SimTime{2000}, sim::Duration{500}, "sim",
             sim::TraceCategory::kNet);
  t.instant(a, "drop", sim::SimTime{3000}, "sim", sim::TraceCategory::kSend);
  t.flow_start(a, "drop", sim::SimTime{4000}, 9, "sim", sim::TraceCategory::kRecv);
  EXPECT_EQ(t.event_count(), 1u);
  t.set_mask(static_cast<std::uint32_t>(sim::TraceCategory::kAll));
  t.flow_end(a, "keep", sim::SimTime{5000}, 9);
  EXPECT_EQ(t.event_count(), 2u);
}

TEST(TraceEventSinkTest, GoldenJsonPinsFlowEventsAndCausalIds) {
  // Pins the exact Chrome-trace serialisation of the three id-carrying event
  // shapes: an "X" with args.id, and an "s"/"f" flow pair bound by the same
  // packet id ("bp": "e" attaches the arrowhead to the enclosing slice).
  // Perfetto renders the pair as an arrow following the packet from the
  // sender's SEND engine to the receiver's RECV engine — byte-for-byte
  // changes here break saved traces and the flow-arrow rendering.
  TraceEventSink t;
  const int tx = t.track("nic0/send");
  const int rx = t.track("nic1/recv");
  t.duration(tx, "tx", sim::SimTime{0} + sim::microseconds(1.0), sim::microseconds(2.0),
             "nic", sim::TraceCategory::kSend, 7);
  t.flow_start(tx, "pkt", sim::SimTime{0} + sim::microseconds(3.0), 7, "net",
               sim::TraceCategory::kNet);
  t.flow_end(rx, "pkt", sim::SimTime{0} + sim::microseconds(4.5), 7, "net",
             sim::TraceCategory::kNet);
  t.duration(rx, "rx", sim::SimTime{0} + sim::microseconds(4.5), sim::microseconds(1.0),
             "nic", sim::TraceCategory::kRecv);  // id 0: no args block
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 0, "
            "\"args\": {\"name\": \"nic0/send\"}},\n"
            "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": 1, "
            "\"args\": {\"name\": \"nic1/recv\"}},\n"
            "  {\"ph\": \"X\", \"name\": \"tx\", \"cat\": \"nic\", \"pid\": 0, \"tid\": 0, "
            "\"ts\": 1.000, \"dur\": 2.000, \"args\": {\"id\": 7}},\n"
            "  {\"ph\": \"s\", \"name\": \"pkt\", \"cat\": \"net\", \"pid\": 0, \"tid\": 0, "
            "\"ts\": 3.000, \"id\": 7},\n"
            "  {\"ph\": \"f\", \"bp\": \"e\", \"name\": \"pkt\", \"cat\": \"net\", \"pid\": 0, "
            "\"tid\": 1, \"ts\": 4.500, \"id\": 7},\n"
            "  {\"ph\": \"X\", \"name\": \"rx\", \"cat\": \"nic\", \"pid\": 0, \"tid\": 1, "
            "\"ts\": 4.500, \"dur\": 1.000}\n"
            "]}\n");
}

// --- End-to-end: a real NIC barrier with the bundle attached ---------------------

coll::ExperimentParams instrumented_params(Telemetry& telemetry, int reps) {
  coll::ExperimentParams p;
  p.nodes = 4;
  p.reps = reps;
  p.spec.location = coll::Location::kNic;
  p.spec.algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
  p.cluster.telemetry = &telemetry;
  return p;
}

TEST(TelemetryIntegrationTest, CountersAreRegisteredAndMonotonic) {
  Telemetry t1, t3;
  (void)coll::run_barrier_experiment(instrumented_params(t1, 1));
  (void)coll::run_barrier_experiment(instrumented_params(t3, 3));

  for (Telemetry* t : {&t1, &t3}) {
    const auto* completed = t->metrics().find_counter("nic0.barriers_completed");
    ASSERT_NE(completed, nullptr);
    ASSERT_NE(t->metrics().find_counter("nic0.engine.sdma.cycles"), nullptr);
    ASSERT_NE(t->metrics().find_counter("node0.pci.jobs"), nullptr);
    ASSERT_NE(t->metrics().find_gauge("nic0.proc.utilisation"), nullptr);
  }
  // More barriers -> strictly more of everything barrier-related.
  EXPECT_EQ(*t1.metrics().find_counter("nic0.barriers_completed"), 1u);
  EXPECT_EQ(*t3.metrics().find_counter("nic0.barriers_completed"), 3u);
  EXPECT_GT(*t3.metrics().find_counter("nic0.barrier_packets_sent"),
            *t1.metrics().find_counter("nic0.barrier_packets_sent"));
  EXPECT_GT(*t3.metrics().find_counter("nic0.engine.rdma.cycles"),
            *t1.metrics().find_counter("nic0.engine.rdma.cycles"));
  EXPECT_GT(*t3.metrics().find_counter("nic0.barrier_pe_rounds"),
            *t1.metrics().find_counter("nic0.barrier_pe_rounds"));
}

TEST(TelemetryIntegrationTest, EngineCyclesCoverProcessorBusyTime) {
  Telemetry t;
  (void)coll::run_barrier_experiment(instrumented_params(t, 5));
  // Every firmware job is attributed to exactly one engine, so the per-engine
  // cycle counters must sum to the processor's total busy time.
  for (int n = 0; n < 4; ++n) {
    const std::string pfx = "nic" + std::to_string(n) + ".";
    std::uint64_t engine_cycles = 0;
    for (const char* e : {"sdma", "send", "recv", "rdma"}) {
      const auto* c = t.metrics().find_counter(pfx + "engine." + e + ".cycles");
      ASSERT_NE(c, nullptr);
      engine_cycles += *c;
    }
    const auto* busy_ps = t.metrics().find_counter(pfx + "proc.busy_ps");
    ASSERT_NE(busy_ps, nullptr);
    // 33 MHz: one cycle is 30303 ps.
    const double busy_cycles = static_cast<double>(*busy_ps) / 30303.0;
    EXPECT_NEAR(static_cast<double>(engine_cycles), busy_cycles,
                0.01 * busy_cycles + 1.0);
  }
}

TEST(TelemetryIntegrationTest, BreakdownTermsSumWithinOneNanosecond) {
  Telemetry t;
  t.enable_causal();
  const int reps = 4;
  coll::ExperimentParams p = instrumented_params(t, reps);
  const coll::ExperimentResult r = coll::run_barrier_experiment(p);

  const Breakdown b = t.causal()->breakdown();
  EXPECT_EQ(b.barriers, p.nodes * static_cast<std::uint64_t>(reps));
  EXPECT_GT(b.host.ps(), 0);
  EXPECT_GT(b.nic.ps(), 0);
  EXPECT_GT(b.dma.ps(), 0);
  EXPECT_GT(b.wire.ps(), 0);
  // The rows tile each critical path, so they sum to the total exactly.
  EXPECT_EQ((b.host + b.nic + b.dma + b.wire + b.queue).ps(), b.total.ps());
  // The per-member critical path must be in the same regime as the
  // experiment's reported mean (they measure slightly different intervals).
  const double mean_us = b.total.us() / static_cast<double>(b.barriers);
  EXPECT_NEAR(mean_us, r.mean_us, 0.25 * r.mean_us);
}

TEST(TelemetryIntegrationTest, ContentionFreeNicPeBarrierHasNoWaitTerm) {
  // Lockstep NIC-PE on one switch: no span waits for its resource, so the
  // queue row (the old wait residual) is exactly zero.
  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams p = instrumented_params(t, 20);
  p.nodes = 16;
  (void)coll::run_barrier_experiment(p);
  const Breakdown b = t.causal()->breakdown();
  const double n = static_cast<double>(b.barriers);
  // log2(16) = 4 rounds, each one single-switch path of 812.5 ns.
  EXPECT_NEAR(b.wire.us() / n, 3.25, 1e-6);
  EXPECT_EQ(b.queue.ps(), 0);
  EXPECT_EQ((b.host + b.nic + b.dma + b.wire).ps(), b.total.ps());
}

/// The trace of a finished run, drawn under `mask`.
sim::telemetry::TraceEventSink draw(Telemetry& t, std::uint32_t mask) {
  sim::telemetry::TraceEventSink sink;
  sink.set_mask(mask);
  sim::telemetry::trace_spans(*t.causal(), sink);
  return sink;
}

constexpr std::uint32_t kAllMask = static_cast<std::uint32_t>(sim::TraceCategory::kAll);

TEST(TelemetryIntegrationTest, TraceHasSpansPerEnginePerBarrierRound) {
  Telemetry t;
  t.enable_causal();
  const int reps = 3;
  (void)coll::run_barrier_experiment(instrumented_params(t, reps));
  sim::telemetry::TraceEventSink sink = draw(t, kAllMask);

  // One track per NIC engine, each with at least one span per barrier round.
  for (int n = 0; n < 4; ++n) {
    for (const char* e : {"sdma", "send", "recv", "rdma"}) {
      const std::string name = "nic" + std::to_string(n) + "/" + e;
      const int id = sink.track(name);  // finds the existing track
      EXPECT_GE(sink.events_on(id), static_cast<std::size_t>(reps)) << name;
    }
  }
  // Links got their own tracks too (4 terminals on one switch = 8 links),
  // and the switch one.
  std::size_t link_tracks = 0;
  for (const std::string& name : sink.track_names()) {
    if (name.rfind("link/", 0) == 0) ++link_tracks;
  }
  EXPECT_EQ(link_tracks, 8u);
  EXPECT_GT(sink.events_on(sink.track("switch/sw0")), 0u);

  std::ostringstream os;
  sink.write_json(os);
  EXPECT_TRUE(valid_json(os.str()));
}

TEST(TelemetryIntegrationTest, TraceMaskFiltersEndToEnd) {
  // One experiment drawn three times: unfiltered, restricted to the receive-
  // engine category, and under a mask no category uses. The mask must thin
  // the drawn events, and the full trace must carry the paired flow events
  // that follow each dependency across tracks.
  coll::ExperimentParams p;
  p.nodes = 4;
  p.reps = 3;
  p.spec.location = coll::Location::kNic;
  Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const sim::telemetry::TraceEventSink full = draw(t, kAllMask);
  const sim::telemetry::TraceEventSink masked =
      draw(t, static_cast<std::uint32_t>(sim::TraceCategory::kRecv));
  EXPECT_GT(masked.event_count(), 0u);
  EXPECT_LT(masked.event_count(), full.event_count());

  // A mask of only the bits no category uses keeps the stream empty; an
  // event drawn without a real category (the kAll default) would pass it.
  std::uint32_t named = 0;
  for (const sim::TraceCategoryName& c : sim::kTraceCategoryNames) {
    if (c.category != sim::TraceCategory::kAll) named |= static_cast<std::uint32_t>(c.category);
  }
  EXPECT_EQ(draw(t, ~named).event_count(), 0u);

  std::ostringstream os;
  full.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"id\": "), std::string::npos);

  std::ostringstream os2;
  masked.write_json(os2);
  EXPECT_TRUE(valid_json(os2.str()));
}

TEST(TelemetryIntegrationTest, SlicesOnOneTrackNestOrDoNotOverlap) {
  // Every span that holds an engine, a PCI bus or a link is one slice on
  // that resource's track; the resources serve one job at a time, so two
  // slices on a track are disjoint (or nest, as Perfetto would draw them).
  // A contended, lossy, multi-switch run exercises queues and retransmits.
  coll::ExperimentParams p;
  p.nodes = 32;
  p.reps = 10;
  p.spec = coll::family_spec({coll::Family::kHier, 2}, p.spec);
  p.cluster.topology = host::Topology::kFatTree;
  p.cluster.fabric_radix = 8;
  p.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
  p.cluster.faults.loss.push_back({"", 0.01});
  Telemetry t;
  t.enable_causal();
  p.cluster.telemetry = &t;
  (void)coll::run_barrier_experiment(p);

  const sim::causal::CausalTracer& spans = *t.causal();
  std::map<std::pair<Resource, std::uint32_t>, std::vector<std::pair<std::int64_t, std::int64_t>>>
      tracks;
  for (sim::causal::SpanId id = 1; id <= spans.span_count(); ++id) {
    const sim::causal::Span& s = *spans.span(id);
    if (s.res < Resource::kSdma || s.res == Resource::kFault || s.res == Resource::kSwitch) {
      continue;  // not a slice
    }
    EXPECT_LE(s.busy_end, s.end) << s.label;
    const std::uint32_t unit = s.res == Resource::kLink ? s.unit : s.node;
    tracks[{s.res, unit}].emplace_back(s.start.ps(), s.busy_end.ps());
  }
  EXPECT_GT(tracks.size(), 32u * 5u);
  std::size_t slices = 0;
  for (auto& [track, v] : tracks) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    std::vector<std::int64_t> open;  // ends of the enclosing slices
    for (const auto& [start, end] : v) {
      while (!open.empty() && open.back() <= start) open.pop_back();
      ASSERT_TRUE(open.empty() || end <= open.back())
          << sim::causal::to_string(track.first) << track.second << ": [" << start << ", "
          << end << "] overlaps a slice ending at " << open.back();
      open.push_back(end);
      ++slices;
    }
  }
  EXPECT_GT(slices, 1000u);
}

TEST(TelemetryIntegrationTest, DetachedTelemetryKeepsTimelineIdentical) {
  // The zero-cost discipline, observed end to end: attaching the full bundle
  // must not change any simulated timestamp.
  coll::ExperimentParams plain;
  plain.nodes = 4;
  plain.reps = 3;
  plain.spec.location = coll::Location::kNic;
  const double bare_us = coll::run_barrier_experiment(plain).mean_us;

  Telemetry t;
  t.enable_causal();
  coll::ExperimentParams wired = plain;
  wired.cluster.telemetry = &t;
  const double wired_us = coll::run_barrier_experiment(wired).mean_us;

  EXPECT_DOUBLE_EQ(bare_us, wired_us);
}

}  // namespace
}  // namespace nicbar
