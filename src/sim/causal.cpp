#include "sim/causal.hpp"

#include <algorithm>
#include <cstring>
#include <queue>

#include "sim/check.hpp"

namespace nicbar::sim::causal {

namespace {

// The recording thread's arena. A plain thread_local (not a member) so the
// hot record() path costs one TLS read; only consulted while the tracer has
// more than one shard, so legacy single-threaded users never depend on it.
thread_local std::size_t t_current_shard = 0;

}  // namespace

const char* to_string(Segment s) {
  switch (s) {
    case Segment::kHost: return "host";
    case Segment::kSdma: return "sdma";
    case Segment::kSend: return "send";
    case Segment::kWire: return "wire";
    case Segment::kSwitch: return "switch";
    case Segment::kRecv: return "recv";
    case Segment::kFirmware: return "firmware";
    case Segment::kRdma: return "rdma";
    case Segment::kRep: return "rep";
  }
  return "?";
}

const char* to_string(Resource r) {
  static constexpr const char* kNames[] = {"",     "host", "sdma",  "send", "recv",
                                           "rdma", "pci",  "fault", "link", "switch"};
  return kNames[static_cast<std::size_t>(r)];
}

void CausalTracer::enable_sharding(std::size_t shards) {
  // resize, not assign: shard 0 — where a previous canonicalize() collapsed
  // everything — survives, so sharding can be re-enabled between runs.
  shard_spans_.resize(shards >= 1 ? shards : 1);
  shard_completed_.resize(shards >= 1 ? shards : 1);
}

void CausalTracer::set_current_shard(std::size_t shard) { t_current_shard = shard; }

std::size_t CausalTracer::record_shard() const {
  return shard_spans_.size() > 1 ? t_current_shard : 0;
}

SpanId CausalTracer::record(Span s, SpanId parent, SpanId parent2) {
  const std::size_t shard = record_shard();
  std::vector<Span>& arena = shard_spans_[shard];
  s.id = (static_cast<std::uint64_t>(shard) << kShardShift) | (arena.size() + 1);
  s.parents.clear();
  // Single arena: edges must point to already-recorded spans (smaller ids),
  // which keeps the graph trivially acyclic. With shards, a parent may live
  // in another arena where id order says nothing — canonicalize() restores
  // the invariant and drops anything dangling.
  const bool sharded = shard_spans_.size() > 1;
  if (parent != 0 && (sharded ? parent != s.id : parent < s.id)) s.parents.push_back(parent);
  if (parent2 != 0 && (sharded ? parent2 != s.id : parent2 < s.id) && parent2 != parent) {
    s.parents.push_back(parent2);
  }
  arena.push_back(std::move(s));
  return arena.back().id;
}

void CausalTracer::add_parent(SpanId span, SpanId parent) {
  // Only the arena that recorded a span may grow its parent list (true at
  // every call site: joins are attached by the consuming element's own
  // lane). Cross-arena *references* are fine; cross-arena writes are not.
  if (span == 0 || parent == 0 || parent == span) return;
  const Span* s = this->span(span);
  if (s == nullptr) return;
  // Ordering guard: an edge whose parent was recorded *after* its child is a
  // forward reference (the engine retroactively claiming an earlier span —
  // e.g. a pe_advance pointing back at a barrier_advance it superseded).
  // Within one arena the idx field is record order, so the raw comparison
  // detects it; cross-shard edges always flow through a link delivery whose
  // parent span predates the child, so they are never forward references.
  if ((span >> kShardShift) == (parent >> kShardShift) && parent >= span) return;
  std::vector<SpanId>& ps = const_cast<Span*>(s)->parents;
  if (std::find(ps.begin(), ps.end(), parent) == ps.end()) ps.push_back(parent);
}

void CausalTracer::complete_barrier(std::uint32_t node, std::uint16_t port,
                                    std::uint32_t epoch, SpanId sink) {
  if (span(sink) == nullptr) return;
  CompletedBarrier b;
  b.node = node;
  b.port = port;
  b.epoch = epoch;
  b.sink = sink;
  if (shard_spans_.size() == 1) {
    b.total = critical_path(sink).total;
  }
  // Sharded: the sink's ancestors may still be foreign arenas mid-run, so
  // walking them here would race — canonicalize() fills the total in.
  shard_completed_[record_shard()].push_back(b);
}

CriticalPath CausalTracer::critical_path(SpanId sink) const {
  CriticalPath path;
  const Span* sink_span = span(sink);
  if (sink_span == nullptr) return path;

  // Walk back from the sink, always following the latest-ending parent
  // (ties keep the first-listed parent; parent list order is preserved by
  // canonicalize(), so the walk is canonical too).
  const Span* cur = sink_span;
  while (cur != nullptr) {
    const Span* crit = nullptr;
    for (const SpanId p : cur->parents) {
      const Span* ps = span(p);
      if (ps == nullptr) continue;
      if (crit == nullptr || ps->end > crit->end) crit = ps;
    }
    PathStep step;
    step.span = cur->id;
    step.seg = cur->seg;
    step.res = cur->res;
    step.node = cur->node;
    step.label = cur->label;
    step.self = cur->end - cur->start;
    step.queue = crit != nullptr ? cur->start - crit->end : Duration{0};
    path.steps.push_back(step);
    cur = crit;
  }
  std::reverse(path.steps.begin(), path.steps.end());

  for (const PathStep& step : path.steps) {
    const std::size_t seg = static_cast<std::size_t>(step.seg);
    path.self[seg] += step.self;
    path.queue[seg] += step.queue;
  }
  // total telescopes: end(sink) - start(origin) == sum(self) + sum(queue).
  path.total = sink_span->end - span(path.steps.front().span)->start;
  return path;
}

void CausalTracer::fold(const CriticalPath& path, PathProfile& out) const {
  ++out.barriers;
  out.total += path.total;
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    out.self[s] += path.self[s];
    out.queue[s] += path.queue[s];
  }
  for (const PathStep& step : path.steps) {
    out.by_node_segment[{step.node, static_cast<std::uint8_t>(step.seg)}] +=
        step.self + step.queue;
  }
}

PathProfile CausalTracer::profile(double min_percentile) const {
  const std::vector<CompletedBarrier>& all = completed();
  if (min_percentile <= 0.0) return profile_of(all);
  std::vector<std::int64_t> totals;
  totals.reserve(all.size());
  for (const CompletedBarrier& b : all) totals.push_back(b.total.ps());
  if (totals.empty()) return PathProfile{};
  std::sort(totals.begin(), totals.end());
  const double rank = min_percentile / 100.0 * static_cast<double>(totals.size() - 1);
  const std::size_t idx = std::min(totals.size() - 1, static_cast<std::size_t>(rank));
  const std::int64_t threshold = totals[idx];
  std::vector<CompletedBarrier> picked;
  for (const CompletedBarrier& b : all) {
    if (b.total.ps() >= threshold) picked.push_back(b);
  }
  return profile_of(picked);
}

PathProfile CausalTracer::profile_of(const std::vector<CompletedBarrier>& barriers) const {
  PathProfile out;
  for (const CompletedBarrier& b : barriers) fold(critical_path(b.sink), out);
  return out;
}

Breakdown CausalTracer::breakdown() const {
  Breakdown out;
  for (const CompletedBarrier& b : completed()) {
    const CriticalPath path = critical_path(b.sink);
    ++out.barriers;
    out.total += path.total;
    for (const PathStep& step : path.steps) {
      out.queue += step.queue;
      switch (step.res) {
        case Resource::kHost: out.host += step.self; break;
        case Resource::kPci: out.dma += step.self; break;
        case Resource::kLink:
        case Resource::kSwitch: out.wire += step.self; break;
        default: out.nic += step.self; break;  // engines, and zero-length joins
      }
    }
  }
  return out;
}

bool CausalTracer::verify_acyclic() const {
  // Cross-shard ids are not order-comparable, so the invariant is only
  // checkable once everything lives in arena 0 — the serial case, or a
  // canonicalized tracer that was re-sharded for a follow-up run (arenas
  // 1..P-1 empty).
  for (std::size_t s = 1; s < shard_spans_.size(); ++s) {
    if (!shard_spans_[s].empty()) return false;  // canonicalize first
  }
  for (const Span& s : shard_spans_[0]) {
    for (const SpanId p : s.parents) {
      if (p == 0 || p >= s.id) return false;
    }
  }
  return true;
}

void CausalTracer::canonicalize() {
  const std::size_t num_shards = shard_spans_.size();

  // Flatten. A span's flat index is (shard offset + local index), so old
  // encoded ids decode straight into flat indices.
  std::vector<std::size_t> offset(num_shards + 1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    offset[s + 1] = offset[s] + shard_spans_[s].size();
  }
  const std::size_t n = offset[num_shards];
  std::vector<Span> all;
  all.reserve(n);
  for (std::vector<Span>& arena : shard_spans_) {
    for (Span& s : arena) all.push_back(std::move(s));
    arena.clear();
  }
  auto flat_of = [&](SpanId id) -> std::ptrdiff_t {
    const std::size_t shard = static_cast<std::size_t>(id >> kShardShift);
    const std::uint64_t idx = id & kIdxMask;
    if (shard >= num_shards || idx == 0 ||
        offset[shard] + idx > offset[shard + 1]) {
      return -1;
    }
    return static_cast<std::ptrdiff_t>(offset[shard] + idx - 1);
  };

  // Content order: ends first (causality flows toward later ends), then
  // start/segment/node/label/key. The flat-index fallback only breaks ties
  // between spans of one arena (identical content on different lanes always
  // differs in node or packet-id key), where it equals that lane's record
  // order — the same relative order a serial run records them in.
  auto content_less = [&](std::size_t a, std::size_t b) {
    const Span& x = all[a];
    const Span& y = all[b];
    if (x.end != y.end) return x.end < y.end;
    if (x.start != y.start) return x.start < y.start;
    if (x.seg != y.seg) return x.seg < y.seg;
    if (x.node != y.node) return x.node < y.node;
    const int c = std::strcmp(x.label, y.label);
    if (c != 0) return c < 0;
    if (x.key != y.key) return x.key < y.key;
    return a < b;
  };

  // Kahn's algorithm with a content-ordered ready set: pop the smallest
  // ready span, number it, release its children. Numbering therefore
  // depends only on span content and edges — never on arena layout — and
  // satisfies parent-id < span-id by construction.
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::vector<std::uint32_t>> children(n);
  for (std::size_t f = 0; f < n; ++f) {
    for (const SpanId p : all[f].parents) {
      const std::ptrdiff_t pf = flat_of(p);
      if (pf < 0 || static_cast<std::size_t>(pf) == f) continue;
      children[static_cast<std::size_t>(pf)].push_back(static_cast<std::uint32_t>(f));
      ++indegree[f];
    }
  }
  auto ready_greater = [&](std::size_t a, std::size_t b) { return content_less(b, a); };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(ready_greater)> ready(
      ready_greater);
  for (std::size_t f = 0; f < n; ++f) {
    if (indegree[f] == 0) ready.push(f);
  }
  std::vector<SpanId> new_id(n, 0);
  SpanId next = 1;
  while (!ready.empty()) {
    const std::size_t f = ready.top();
    ready.pop();
    new_id[f] = next++;
    for (const std::uint32_t c : children[f]) {
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  NICBAR_CHECK(next == n + 1, "causal.cycle", SimTime::zero(),
               "%zu span(s) unreachable in topological renumbering: the span "
               "graph has a cycle",
               n + 1 - static_cast<std::size_t>(next));

  std::vector<Span> canon(n);
  for (std::size_t f = 0; f < n; ++f) {
    Span s = std::move(all[f]);
    s.id = new_id[f];
    std::vector<SpanId> parents;
    parents.reserve(s.parents.size());
    for (const SpanId p : s.parents) {
      const std::ptrdiff_t pf = flat_of(p);
      if (pf < 0 || static_cast<std::size_t>(pf) == f) continue;  // dangling
      parents.push_back(new_id[static_cast<std::size_t>(pf)]);
    }
    s.parents = std::move(parents);
    canon[s.id - 1] = std::move(s);
  }
  shard_spans_.assign(1, std::move(canon));

  // Merge completions, remap sinks, and fill in (or refresh) totals now
  // that the whole DAG is visible. The sort gives one canonical order; two
  // barriers never share a sink span, so it is total.
  std::vector<CompletedBarrier> merged;
  for (std::vector<CompletedBarrier>& arena : shard_completed_) {
    for (CompletedBarrier& b : arena) {
      const std::ptrdiff_t f = flat_of(b.sink);
      if (f < 0) continue;
      b.sink = new_id[static_cast<std::size_t>(f)];
      merged.push_back(b);
    }
    arena.clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const CompletedBarrier& a, const CompletedBarrier& b) {
              if (a.sink != b.sink) return a.sink < b.sink;
              if (a.node != b.node) return a.node < b.node;
              if (a.port != b.port) return a.port < b.port;
              return a.epoch < b.epoch;
            });
  for (CompletedBarrier& b : merged) b.total = critical_path(b.sink).total;
  shard_completed_.assign(1, std::move(merged));
}

void CausalTracer::clear() {
  for (std::vector<Span>& arena : shard_spans_) arena.clear();
  for (std::vector<CompletedBarrier>& arena : shard_completed_) arena.clear();
}

}  // namespace nicbar::sim::causal
