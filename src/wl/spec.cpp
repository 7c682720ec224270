#include "wl/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace nicbar::wl {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kDisjoint: return "disjoint";
    case Placement::kStrided: return "strided";
    case Placement::kOverlapping: return "overlapping";
  }
  return "?";
}

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kFixed: return "fixed";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kClosedLoop: return "closed-loop";
  }
  return "?";
}

const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kBarrier: return "barrier";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kAllreduce: return "allreduce";
    case CollectiveKind::kFuzzyBarrier: return "fuzzy";
  }
  return "?";
}

bool CollectiveMix::mixed() const {
  int kinds = 0;
  for (const double w : {barrier, broadcast, allreduce, fuzzy}) {
    if (w > 0.0) ++kinds;
  }
  return kinds > 1;
}

std::size_t WorkloadSpec::total_jobs() const {
  std::size_t n = 0;
  for (const JobClass& c : classes) n += c.count;
  return n;
}

void validate(const WorkloadSpec& spec) {
  auto bad = [](const std::string& msg) { throw std::invalid_argument("workload spec: " + msg); };
  if (spec.cluster_nodes == 0) bad("cluster-nodes must be positive");
  if (spec.classes.empty()) bad("at least one job class is required");
  if (spec.total_jobs() == 0) bad("total job count is zero");
  if (spec.hist_max_us <= 0.0 || spec.hist_bins == 0) bad("histogram range must be positive");
  if (spec.arrival.kind == ArrivalKind::kPoisson && spec.arrival.interval.ps() <= 0) {
    bad("poisson arrival needs a positive mean interval");
  }
  if (spec.arrival.kind == ArrivalKind::kClosedLoop && spec.arrival.width == 0) {
    bad("closed-loop arrival needs width >= 1");
  }
  if (spec.cluster.nic.barrier_slots < 0) bad("nic-slots must be non-negative");
  for (const JobClass& c : spec.classes) {
    const std::string who = "class '" + c.name + "': ";
    if (c.nodes == 0) bad(who + "nodes must be positive");
    if (c.nodes > spec.cluster_nodes) bad(who + "wider than the cluster");
    if (c.iterations <= 0) bad(who + "iterations must be positive");
    if (c.mix.total() <= 0.0) bad(who + "collective mix has no weight");
    for (const double w : {c.mix.barrier, c.mix.broadcast, c.mix.allreduce, c.mix.fuzzy}) {
      if (w < 0.0) bad(who + "mix weights must be non-negative");
    }
    if (c.compute_imbalance < 0.0 || c.compute_imbalance >= 1.0) {
      bad(who + "imbalance must be in [0, 1)");
    }
    if (c.mix.fuzzy > 0.0 && c.location != coll::Location::kNic) {
      bad(who + "fuzzy barriers require the NIC-based location");
    }
    if (c.mix.fuzzy > 0.0 && !c.mix.barrier_only()) {
      bad(who + "fuzzy barriers cannot be mixed with reductions (one event "
                "stream per port; use a separate class)");
    }
    if (c.mix.fuzzy > 0.0 && c.fuzzy_chunk.ps() <= 0) {
      bad(who + "fuzzy-chunk-us must be positive");
    }
    if (c.mix.barrier_only() && !c.layer_overhead.is_zero()) {
      bad(who + "layer-us applies to the communicator path only (add a "
                "reduction weight, or drop it to model raw GM)");
    }
    if (c.algorithm == nic::BarrierAlgorithm::kGatherBroadcast && c.gb_dimension == 0) {
      bad(who + "GB needs a positive tree dimension");
    }
    if (c.rdma != coll::RdmaAlgorithm::kNone) {
      // The host-RDMA family runs on bare rma::Domains; reductions, fuzzy
      // barriers, and managed groups all live on other code paths.
      if (!c.mix.barrier_only() || c.mix.fuzzy > 0.0) {
        bad(who + "host-RDMA barriers require a pure-barrier mix");
      }
      if (c.managed) bad(who + "host-RDMA barriers cannot use a managed lifecycle");
      if (c.rdma == coll::RdmaAlgorithm::kTreePut && c.gb_dimension == 0) {
        bad(who + "host-tree needs a positive radix");
      }
    }
    if (c.hierarchical) {
      // The two-level family composes NIC sub-barriers; it has no host,
      // fuzzy, or reduction path of its own.
      if (c.location != coll::Location::kNic) {
        bad(who + "hierarchical barriers require the NIC-based location");
      }
      if (!c.mix.barrier_only() || c.mix.fuzzy > 0.0) {
        bad(who + "hierarchical barriers require a pure-barrier mix");
      }
      if (c.gb_dimension == 0) bad(who + "hier needs a positive intra-block dimension");
    }
    if (!c.slo.is_zero() && (c.slo_target <= 0.0 || c.slo_target >= 1.0)) {
      bad(who + "slo-target must be in (0, 1)");
    }
    if (c.slo.ps() < 0 || c.slo_window.ps() < 0) {
      bad(who + "slo-us and slo-window-us must be non-negative");
    }
    if (c.managed) {
      // A managed group owns the whole barrier path (NIC slot or host
      // fallback); reductions and fuzzy barriers bypass that lifecycle.
      if (!c.mix.barrier_only() || c.mix.fuzzy > 0.0) {
        bad(who + "lifecycle managed requires a pure-barrier mix");
      }
      if (c.location != coll::Location::kNic) {
        bad(who + "lifecycle managed requires the NIC location (the host "
                  "path is the group's fallback mode, not a starting mode)");
      }
      if (c.promote_every < 0) bad(who + "promote-every must be non-negative");
    }
  }
}

std::vector<std::vector<net::NodeId>> place_jobs(const WorkloadSpec& spec) {
  const std::size_t N = spec.cluster_nodes;
  const std::size_t jobs = spec.total_jobs();
  std::vector<std::vector<net::NodeId>> sets;
  sets.reserve(jobs);

  std::size_t demanded = 0;
  for (const JobClass& c : spec.classes) demanded += c.count * c.nodes;

  switch (spec.placement) {
    case Placement::kDisjoint: {
      // Consecutive packs: job j gets the next `nodes` unclaimed nodes.
      if (demanded > N) {
        throw std::invalid_argument("workload spec: disjoint placement needs " +
                                    std::to_string(demanded) + " nodes but the cluster has " +
                                    std::to_string(N));
      }
      std::size_t base = 0;
      for (const JobClass& c : spec.classes) {
        for (std::size_t k = 0; k < c.count; ++k) {
          std::vector<net::NodeId> s;
          s.reserve(c.nodes);
          for (std::size_t m = 0; m < c.nodes; ++m) {
            s.push_back(static_cast<net::NodeId>(base + m));
          }
          base += c.nodes;
          sets.push_back(std::move(s));
        }
      }
      break;
    }
    case Placement::kStrided: {
      // Round-robin interleave: job j takes nodes j, j+J, j+2J, ... — the
      // same node budget as disjoint but spread across the topology, so
      // jobs share switches (and, on chains/trees, inter-switch links).
      if (demanded > N) {
        throw std::invalid_argument("workload spec: strided placement needs " +
                                    std::to_string(demanded) + " nodes but the cluster has " +
                                    std::to_string(N));
      }
      std::size_t j = 0;
      for (const JobClass& c : spec.classes) {
        for (std::size_t k = 0; k < c.count; ++k) {
          std::vector<net::NodeId> s;
          s.reserve(c.nodes);
          for (std::size_t m = 0; m < c.nodes; ++m) {
            s.push_back(static_cast<net::NodeId>((j + m * jobs) % N));
          }
          sets.push_back(std::move(s));
          ++j;
        }
      }
      break;
    }
    case Placement::kOverlapping: {
      // Sliding windows advancing half a window per job (and wrapping), so
      // consecutive jobs share ~half their nodes BY CONSTRUCTION — the
      // co-located jobs land on distinct GM ports of the same NIC and
      // contend for its LANai processor and PCI bus.
      std::size_t base = 0;
      for (const JobClass& c : spec.classes) {
        for (std::size_t k = 0; k < c.count; ++k) {
          std::vector<net::NodeId> s;
          s.reserve(c.nodes);
          for (std::size_t m = 0; m < c.nodes; ++m) {
            s.push_back(static_cast<net::NodeId>((base + m) % N));
          }
          base += c.nodes > 1 ? c.nodes / 2 : 1;
          sets.push_back(std::move(s));
        }
      }
      break;
    }
  }
  return sets;
}

// --- Spec parser --------------------------------------------------------------

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Length of the longest prefix of `s` that std::num_get reads for a double
/// in the "C" locale: [sign] digits [. digits] [e [sign] digits], where the
/// exponent needs a digit before it. The prefix may end inside a word.
std::size_t number_prefix(std::string_view s) {
  std::size_t i = 0;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  bool digit = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c >= '0' && c <= '9') {
      digit = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && digit) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
      break;
    } else {
      break;
    }
  }
  return i;
}

/// The value of a whole number_prefix() token, or nullopt where the stream
/// set failbit: no digits, a dangling exponent, or a magnitude past the
/// largest double. A value that underflows reads as the nearest
/// representable one, as the stream's strtod gave it.
std::optional<double> to_double(std::string_view tok) {
  if (!tok.empty() && tok.front() == '+') tok.remove_prefix(1);  // from_chars takes '-' only
  double v = 0.0;
  const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (end != tok.data() + tok.size() || ec == std::errc::invalid_argument) return std::nullopt;
  if (ec == std::errc::result_out_of_range) {
    v = std::strtod(std::string(tok).c_str(), nullptr);
    if (std::isinf(v)) return std::nullopt;
  }
  return v;
}

/// One spec line, tokenized in place the way `std::istream >>` read it:
/// words end at whitespace, and a number is number_prefix() of what follows,
/// so "5x" reads 5 and leaves "x" for the next read.
class LineReader {
 public:
  LineReader(const std::string& line, int line_no) : line_(line), rest_(line), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("workload spec line " + std::to_string(line_no_) + " ('" + line_ +
                             "'): " + why);
  }

  /// The next whitespace-delimited word; empty at the end of the line.
  std::string_view next_word() {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    return take(n);
  }

  std::string_view word(std::string_view what) {
    const std::string_view w = next_word();
    if (w.empty()) fail("expected a value for " + std::string(what));
    return w;
  }

  double number(std::string_view what) {
    skip_space();
    const std::optional<double> v = to_double(take(number_prefix(rest_)));
    if (!v) fail("expected a number for " + std::string(what));
    return *v;
  }

  void expect_end() {
    const std::string_view extra = next_word();
    if (!extra.empty()) fail("unexpected trailing token '" + std::string(extra) + "'");
  }

 private:
  void skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  }
  std::string_view take(std::size_t n) {
    const std::string_view head = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return head;
  }

  const std::string& line_;
  std::string_view rest_;
  int line_no_;
};

/// "barrier=0.7" -> sets the named weight on `mix`.
void parse_mix_term(std::string_view term, CollectiveMix& mix, const LineReader& rd) {
  const std::size_t eq = term.find('=');
  if (eq == std::string_view::npos) rd.fail("mix terms look like kind=weight");
  const std::string_view kind = term.substr(0, eq);
  const std::string_view weight = term.substr(eq + 1);
  const std::optional<double> w =
      number_prefix(weight) == weight.size() ? to_double(weight) : std::nullopt;
  if (!w) rd.fail("bad weight in '" + std::string(term) + "'");
  if (kind == "barrier") {
    mix.barrier = *w;
  } else if (kind == "bcast" || kind == "broadcast") {
    mix.broadcast = *w;
  } else if (kind == "allreduce") {
    mix.allreduce = *w;
  } else if (kind == "fuzzy") {
    mix.fuzzy = *w;
  } else {
    rd.fail("unknown collective '" + std::string(kind) + "'");
  }
}

}  // namespace

WorkloadSpec parse_workload_spec(std::istream& in) {
  WorkloadSpec spec;
  JobClass* job = nullptr;  // current class; null while in the preamble
  bool any_mix_term = false;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    LineReader rd(line, line_no);
    const std::string_view key = rd.next_word();
    if (key.empty()) continue;  // blank / comment-only

    if (key == "job") {
      JobClass c;
      c.name = std::string(rd.word("job name"));
      // Per-class mix weights start from nothing; an unspecified mix means
      // barrier-only (the struct default).
      rd.expect_end();
      spec.classes.push_back(std::move(c));
      job = &spec.classes.back();
      any_mix_term = false;
      continue;
    }

    if (job == nullptr) {
      // Preamble keys.
      if (key == "cluster-nodes") {
        const double v = rd.number("cluster-nodes");
        if (v < 1) rd.fail("cluster-nodes must be >= 1");
        spec.cluster_nodes = static_cast<std::size_t>(v);
      } else if (key == "nic") {
        const std::string_view v = rd.word("nic");
        if (v == "lanai43") {
          spec.cluster.nic = nic::lanai43();
        } else if (v == "lanai72") {
          spec.cluster.nic = nic::lanai72();
        } else {
          rd.fail("nic must be lanai43 or lanai72");
        }
      } else if (key == "topology") {
        const std::string v(rd.word("topology"));
        if (v == "switch") {
          spec.cluster.topology = host::Topology::kSingleSwitch;
        } else if (v == "fat-tree" || v == "leaf-spine") {
          spec.cluster.topology =
              v == "fat-tree" ? host::Topology::kFatTree : host::Topology::kLeafSpine;
          const double radix = rd.number(v + " radix");
          const double oversub = rd.number(v + " oversubscription");
          if (radix < 3) rd.fail(v + " radix must be >= 3");
          if (oversub < 1) rd.fail(v + " oversubscription must be >= 1");
          spec.cluster.fabric_radix = static_cast<std::size_t>(radix);
          spec.cluster.fabric_oversub = static_cast<std::size_t>(oversub);
        } else {
          rd.fail("topology must be switch, fat-tree <radix> <oversub>, "
                  "or leaf-spine <radix> <oversub>");
        }
      } else if (key == "reliability") {
        const std::string_view v = rd.word("reliability");
        if (v == "unreliable") {
          spec.cluster.nic.barrier_reliability = nic::BarrierReliability::kUnreliable;
        } else if (v == "shared") {
          spec.cluster.nic.barrier_reliability = nic::BarrierReliability::kSharedStream;
        } else if (v == "separate") {
          spec.cluster.nic.barrier_reliability = nic::BarrierReliability::kSeparateAcks;
        } else {
          rd.fail("reliability must be unreliable, shared, or separate");
        }
      } else if (key == "nic-slots") {
        // Like `reliability`, this must follow `nic` (which replaces the
        // whole NIC config).
        const double v = rd.number("nic-slots");
        if (v < 0) rd.fail("nic-slots must be non-negative");
        spec.cluster.nic.barrier_slots = static_cast<int>(v);
      } else if (key == "placement") {
        const std::string_view v = rd.word("placement");
        if (v == "disjoint") {
          spec.placement = Placement::kDisjoint;
        } else if (v == "strided") {
          spec.placement = Placement::kStrided;
        } else if (v == "overlapping") {
          spec.placement = Placement::kOverlapping;
        } else {
          rd.fail("placement must be disjoint, strided, or overlapping");
        }
      } else if (key == "arrival") {
        const std::string_view v = rd.word("arrival");
        if (v == "fixed") {
          spec.arrival.kind = ArrivalKind::kFixed;
          spec.arrival.interval = sim::microseconds(rd.number("fixed gap"));
        } else if (v == "poisson") {
          spec.arrival.kind = ArrivalKind::kPoisson;
          spec.arrival.interval = sim::microseconds(rd.number("poisson mean gap"));
        } else if (v == "closed-loop") {
          spec.arrival.kind = ArrivalKind::kClosedLoop;
          const double width = rd.number("closed-loop width");
          if (width < 1) rd.fail("closed-loop width must be >= 1");
          spec.arrival.width = static_cast<std::size_t>(width);
          spec.arrival.think = sim::microseconds(rd.number("closed-loop think time"));
        } else {
          rd.fail("arrival must be fixed, poisson, or closed-loop");
        }
      } else if (key == "seed") {
        const double v = rd.number("seed");
        spec.seed = static_cast<std::uint64_t>(v);
      } else if (key == "hist-max-us") {
        spec.hist_max_us = rd.number("hist-max-us");
      } else {
        rd.fail("unknown key '" + std::string(key) + "' (before the first job)");
      }
      rd.expect_end();
      continue;
    }

    // Job-class keys.
    if (key == "count") {
      const double v = rd.number("count");
      if (v < 1) rd.fail("count must be >= 1");
      job->count = static_cast<std::size_t>(v);
    } else if (key == "nodes") {
      const double v = rd.number("nodes");
      if (v < 1) rd.fail("nodes must be >= 1");
      job->nodes = static_cast<std::size_t>(v);
    } else if (key == "iters") {
      const double v = rd.number("iters");
      if (v < 1) rd.fail("iters must be >= 1");
      job->iterations = static_cast<int>(v);
    } else if (key == "mix") {
      if (!any_mix_term) {
        // First mix line: weights are exactly what the spec says.
        job->mix = CollectiveMix{0.0, 0.0, 0.0, 0.0};
        any_mix_term = true;
      }
      bool saw_term = false;
      for (std::string_view term = rd.next_word(); !term.empty(); term = rd.next_word()) {
        parse_mix_term(term, job->mix, rd);
        saw_term = true;
      }
      if (!saw_term) rd.fail("mix needs at least one kind=weight term");
      continue;  // consumed the rest of the line
    } else if (key == "compute-us") {
      job->compute_mean = sim::microseconds(rd.number("compute-us"));
    } else if (key == "imbalance") {
      job->compute_imbalance = rd.number("imbalance");
    } else if (key == "skew-us") {
      job->start_skew = sim::microseconds(rd.number("skew-us"));
    } else if (key == "location") {
      const std::string_view v = rd.word("location");
      if (v == "nic") {
        job->location = coll::Location::kNic;
      } else if (v == "host") {
        job->location = coll::Location::kHost;
      } else {
        rd.fail("location must be nic or host");
      }
    } else if (key == "algorithm") {
      const std::string_view v = rd.word("algorithm");
      // The families are mutually exclusive and the key is last-wins, so
      // each arm resets the other families' selectors.
      job->rdma = coll::RdmaAlgorithm::kNone;
      job->hierarchical = false;
      if (v == "pe") {
        job->algorithm = nic::BarrierAlgorithm::kPairwiseExchange;
      } else if (v == "gb") {
        job->algorithm = nic::BarrierAlgorithm::kGatherBroadcast;
        job->gb_dimension = static_cast<std::size_t>(rd.number("gb dimension"));
      } else if (v == "hier") {
        job->hierarchical = true;
        job->gb_dimension = static_cast<std::size_t>(rd.number("hier intra dimension"));
      } else if (v == "host-dissem") {
        job->rdma = coll::RdmaAlgorithm::kDissemination;
      } else if (v == "host-tree") {
        job->rdma = coll::RdmaAlgorithm::kTreePut;
        job->gb_dimension = static_cast<std::size_t>(rd.number("host-tree radix"));
      } else {
        rd.fail("algorithm must be pe, gb <dim>, hier <dim>, host-dissem, or host-tree <radix>");
      }
    } else if (key == "fuzzy-chunk-us") {
      job->fuzzy_chunk = sim::microseconds(rd.number("fuzzy-chunk-us"));
    } else if (key == "deadline-us") {
      job->deadline = sim::microseconds(rd.number("deadline-us"));
    } else if (key == "layer-us") {
      job->layer_overhead = sim::microseconds(rd.number("layer-us"));
    } else if (key == "slo-us") {
      job->slo = sim::microseconds(rd.number("slo-us"));
    } else if (key == "slo-target") {
      job->slo_target = rd.number("slo-target");
    } else if (key == "slo-window-us") {
      job->slo_window = sim::microseconds(rd.number("slo-window-us"));
    } else if (key == "lifecycle") {
      const std::string_view v = rd.word("lifecycle");
      if (v == "managed") {
        job->managed = true;
      } else if (v == "none") {
        job->managed = false;
      } else {
        rd.fail("lifecycle must be none or managed");
      }
    } else if (key == "promote-every") {
      const double v = rd.number("promote-every");
      if (v < 0) rd.fail("promote-every must be non-negative");
      job->promote_every = static_cast<int>(v);
    } else {
      rd.fail("unknown job key '" + std::string(key) + "'");
    }
    rd.expect_end();
  }

  try {
    validate(spec);
    (void)place_jobs(spec);  // surface placement misfits at parse time too
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  return spec;
}

WorkloadSpec parse_workload_spec(const std::string& text) {
  std::istringstream is(text);
  return parse_workload_spec(is);
}

// --- Spec printer -------------------------------------------------------------

namespace {

/// Microsecond rendering with full picosecond precision (6 decimals); the
/// parser's microseconds() conversion reconstructs the same Duration for any
/// integer-µs value, which is all the format promises to round-trip.
std::string us_str(sim::Duration d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", d.us());
  return buf;
}

std::string weight_str(double w) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", w);
  return buf;
}

const char* nic_name(const host::ClusterParams& c) {
  // The format names the card, not the full config; pick by model string
  // with the clock as a fallback for hand-built configs.
  if (c.nic.model == nic::lanai72().model) return "lanai72";
  if (c.nic.model == nic::lanai43().model) return "lanai43";
  return c.nic.clock_mhz >= 50.0 ? "lanai72" : "lanai43";
}

const char* topology_name(host::Topology t) {
  switch (t) {
    case host::Topology::kSingleSwitch: return "switch";
    case host::Topology::kFatTree: return "fat-tree";
    case host::Topology::kLeafSpine: return "leaf-spine";
  }
  return "switch";
}

/// The fabric topologies carry their shape parameters on the line.
bool topology_has_shape(host::Topology t) {
  return t == host::Topology::kFatTree || t == host::Topology::kLeafSpine;
}

const char* reliability_name(nic::BarrierReliability r) {
  switch (r) {
    case nic::BarrierReliability::kUnreliable: return "unreliable";
    case nic::BarrierReliability::kSharedStream: return "shared";
    case nic::BarrierReliability::kSeparateAcks: return "separate";
  }
  return "unreliable";
}

}  // namespace

void print_spec(const WorkloadSpec& spec, std::ostream& os) {
  os << "cluster-nodes " << spec.cluster_nodes << "\n";
  // `nic` replaces the whole NIC config, so `reliability` must follow it.
  os << "nic " << nic_name(spec.cluster) << "\n";
  os << "reliability " << reliability_name(spec.cluster.nic.barrier_reliability) << "\n";
  // Printed only when it differs from the card default, so pre-lifecycle
  // specs print byte-identically to the old format.
  if (spec.cluster.nic.barrier_slots != nic::NicConfig{}.barrier_slots) {
    os << "nic-slots " << spec.cluster.nic.barrier_slots << "\n";
  }
  os << "topology " << topology_name(spec.cluster.topology);
  if (topology_has_shape(spec.cluster.topology)) {
    os << " " << spec.cluster.fabric_radix << " " << spec.cluster.fabric_oversub;
  }
  os << "\n";
  os << "placement " << to_string(spec.placement) << "\n";
  switch (spec.arrival.kind) {
    case ArrivalKind::kFixed:
      os << "arrival fixed " << us_str(spec.arrival.interval) << "\n";
      break;
    case ArrivalKind::kPoisson:
      os << "arrival poisson " << us_str(spec.arrival.interval) << "\n";
      break;
    case ArrivalKind::kClosedLoop:
      os << "arrival closed-loop " << spec.arrival.width << " " << us_str(spec.arrival.think)
         << "\n";
      break;
  }
  os << "seed " << spec.seed << "\n";
  os << "hist-max-us " << weight_str(spec.hist_max_us) << "\n";
  for (const JobClass& c : spec.classes) {
    os << "\njob " << c.name << "\n";
    os << "  count " << c.count << "\n";
    os << "  nodes " << c.nodes << "\n";
    os << "  iters " << c.iterations << "\n";
    os << "  mix barrier=" << weight_str(c.mix.barrier) << " bcast=" << weight_str(c.mix.broadcast)
       << " allreduce=" << weight_str(c.mix.allreduce) << " fuzzy=" << weight_str(c.mix.fuzzy)
       << "\n";
    os << "  compute-us " << us_str(c.compute_mean) << "\n";
    os << "  imbalance " << weight_str(c.compute_imbalance) << "\n";
    os << "  skew-us " << us_str(c.start_skew) << "\n";
    os << "  location " << (c.location == coll::Location::kNic ? "nic" : "host") << "\n";
    if (c.rdma == coll::RdmaAlgorithm::kDissemination) {
      os << "  algorithm host-dissem\n";
    } else if (c.rdma == coll::RdmaAlgorithm::kTreePut) {
      os << "  algorithm host-tree " << c.gb_dimension << "\n";
    } else if (c.hierarchical) {
      os << "  algorithm hier " << c.gb_dimension << "\n";
    } else if (c.algorithm == nic::BarrierAlgorithm::kGatherBroadcast) {
      os << "  algorithm gb " << c.gb_dimension << "\n";
    } else {
      os << "  algorithm pe\n";
    }
    os << "  fuzzy-chunk-us " << us_str(c.fuzzy_chunk) << "\n";
    os << "  deadline-us " << us_str(c.deadline) << "\n";
    if (!c.layer_overhead.is_zero()) os << "  layer-us " << us_str(c.layer_overhead) << "\n";
    if (!c.slo.is_zero()) {
      // SLO keys ride only on classes that declare one (like layer-us), so
      // SLO-free specs print byte-identically to the pre-SLO format.
      os << "  slo-us " << us_str(c.slo) << "\n";
      os << "  slo-target " << weight_str(c.slo_target) << "\n";
      os << "  slo-window-us " << us_str(c.slo_window) << "\n";
    }
    if (c.managed) {
      // Lifecycle keys ride only on managed classes, for the same reason.
      os << "  lifecycle managed\n";
      os << "  promote-every " << c.promote_every << "\n";
    }
  }
}

std::string print_spec(const WorkloadSpec& spec) {
  std::ostringstream os;
  print_spec(spec, os);
  return os.str();
}

bool spec_equal(const WorkloadSpec& a, const WorkloadSpec& b) {
  if (a.cluster_nodes != b.cluster_nodes || a.placement != b.placement || a.seed != b.seed ||
      a.hist_max_us != b.hist_max_us) {
    return false;
  }
  if (a.arrival.kind != b.arrival.kind || a.arrival.interval != b.arrival.interval ||
      a.arrival.width != b.arrival.width || a.arrival.think != b.arrival.think) {
    return false;
  }
  if (a.cluster.nic.model != b.cluster.nic.model ||
      a.cluster.nic.clock_mhz != b.cluster.nic.clock_mhz ||
      a.cluster.nic.barrier_reliability != b.cluster.nic.barrier_reliability ||
      a.cluster.nic.barrier_slots != b.cluster.nic.barrier_slots ||
      a.cluster.topology != b.cluster.topology) {
    return false;
  }
  // The fabric shape rides on the topology line for fat-tree/leaf-spine
  // only, so it is compared (like printed) only there.
  if (topology_has_shape(a.cluster.topology) &&
      (a.cluster.fabric_radix != b.cluster.fabric_radix ||
       a.cluster.fabric_oversub != b.cluster.fabric_oversub)) {
    return false;
  }
  if (a.classes.size() != b.classes.size()) return false;
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    const JobClass& x = a.classes[i];
    const JobClass& y = b.classes[i];
    if (x.name != y.name || x.count != y.count || x.nodes != y.nodes ||
        x.iterations != y.iterations) {
      return false;
    }
    if (x.mix.barrier != y.mix.barrier || x.mix.broadcast != y.mix.broadcast ||
        x.mix.allreduce != y.mix.allreduce || x.mix.fuzzy != y.mix.fuzzy) {
      return false;
    }
    if (x.compute_mean != y.compute_mean || x.compute_imbalance != y.compute_imbalance ||
        x.start_skew != y.start_skew || x.fuzzy_chunk != y.fuzzy_chunk ||
        x.location != y.location || x.algorithm != y.algorithm || x.deadline != y.deadline ||
        x.layer_overhead != y.layer_overhead) {
      return false;
    }
    // The format only carries the dimension for GB ("algorithm gb <dim>")
    // and host-tree ("algorithm host-tree <radix>"); for PE and
    // host-dissem the field is meaningless and not compared.
    if (x.rdma != y.rdma) return false;
    if (x.hierarchical != y.hierarchical) return false;
    if ((x.algorithm == nic::BarrierAlgorithm::kGatherBroadcast ||
         x.rdma == coll::RdmaAlgorithm::kTreePut || x.hierarchical) &&
        x.gb_dimension != y.gb_dimension) {
      return false;
    }
    // Same for the SLO keys: printed (and thus compared) only when the
    // class declares an SLO.
    if (x.slo != y.slo) return false;
    if (!x.slo.is_zero() &&
        (x.slo_target != y.slo_target || x.slo_window != y.slo_window)) {
      return false;
    }
    // And the lifecycle keys: printed only on managed classes.
    if (x.managed != y.managed) return false;
    if (x.managed && x.promote_every != y.promote_every) return false;
  }
  return true;
}

}  // namespace nicbar::wl
