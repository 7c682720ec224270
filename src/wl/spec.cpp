#include "wl/spec.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "sim/names.hpp"
#include "sim/value.hpp"

namespace nicbar::wl {

const char* to_string(Placement p) {
  return kPlacementNames[static_cast<std::size_t>(p)].name.data();
}

const char* to_string(ArrivalKind k) {
  return kArrivalNames[static_cast<std::size_t>(k)].name.data();
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
  // A class's diagnostic names it; the prefix is built only on failure.
  auto bad_class = [&bad](const JobClass& c, const std::string& msg) {
    bad("class '" + c.name + "': " + msg);
  };
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
    if (c.nodes == 0) bad_class(c, "nodes must be positive");
    if (c.nodes > spec.cluster_nodes) bad_class(c, "wider than the cluster");
    if (c.iterations <= 0) bad_class(c, "iterations must be positive");
    if (c.mix.total() <= 0.0) bad_class(c, "collective mix has no weight");
    for (const double w : {c.mix.barrier, c.mix.broadcast, c.mix.allreduce, c.mix.fuzzy}) {
      if (w < 0.0) bad_class(c, "mix weights must be non-negative");
    }
    if (c.compute_imbalance < 0.0 || c.compute_imbalance >= 1.0) {
      bad_class(c, "imbalance must be in [0, 1)");
    }
    if (const std::string why = coll::family_refusal(
            c.barrier.family, {.dim = c.barrier.dim, .managed = c.managed,
                               .fuzzy = c.mix.fuzzy > 0.0, .reductions = !c.mix.barrier_only()});
        !why.empty()) {
      bad_class(c, why);
    }
    if (c.mix.fuzzy > 0.0 && !c.mix.barrier_only()) {
      bad_class(c, "fuzzy barriers cannot be mixed with reductions (one event "
                   "stream per port; use a separate class)");
    }
    if (c.mix.fuzzy > 0.0 && c.fuzzy_chunk.ps() <= 0) {
      bad_class(c, "fuzzy-chunk-us must be positive");
    }
    if (c.mix.barrier_only() && !c.layer_overhead.is_zero()) {
      bad_class(c, "layer-us applies to the communicator path only (add a "
                   "reduction weight, or drop it to model raw GM)");
    }
    if (!c.slo.is_zero() && (c.slo_target <= 0.0 || c.slo_target >= 1.0)) {
      bad_class(c, "slo-target must be in (0, 1)");
    }
    if (c.slo.ps() < 0 || c.slo_window.ps() < 0) {
      bad_class(c, "slo-us and slo-window-us must be non-negative");
    }
    if (c.managed) {
      // A managed group owns the whole barrier path (NIC slot or host
      // fallback); reductions and fuzzy barriers bypass that lifecycle.
      if (!c.mix.barrier_only() || c.mix.fuzzy > 0.0) {
        bad_class(c, "lifecycle managed requires a pure-barrier mix");
      }
      if (c.promote_every < 0) bad_class(c, "promote-every must be non-negative");
    }
  }
  // A disjoint or strided layout must fit; an overlapping one always does.
  std::size_t demanded = 0;
  for (const JobClass& c : spec.classes) demanded += c.count * c.nodes;
  if (spec.placement != Placement::kOverlapping && demanded > spec.cluster_nodes) {
    bad(std::string(to_string(spec.placement)) + " placement needs " + std::to_string(demanded) +
        " nodes but the cluster has " + std::to_string(spec.cluster_nodes));
  }
}

std::vector<std::vector<net::NodeId>> place_jobs(const WorkloadSpec& spec) {
  validate(spec);  // a disjoint or strided layout must fit
  const std::size_t jobs = spec.total_jobs();
  std::vector<std::vector<net::NodeId>> sets;
  sets.reserve(jobs);
  // Member m of job j, whose window starts at `base`:
  //   disjoint: consecutive packs, base + m, the next `nodes` unclaimed nodes;
  //   strided: a round-robin interleave, j + m·J, the same node budget
  //     spread across the topology, so jobs share switches and links;
  //   overlapping: sliding windows advancing half a window per job (and
  //     wrapping), so consecutive jobs share about half their nodes by
  //     construction: co-located jobs land on distinct GM ports of one NIC
  //     and contend for its LANai processor and PCI bus.
  std::size_t base = 0;
  for (const JobClass& c : spec.classes) {
    for (std::size_t k = 0; k < c.count; ++k) {
      const std::size_t j = sets.size();
      std::vector<net::NodeId>& set = sets.emplace_back(c.nodes);
      for (std::size_t m = 0; m < c.nodes; ++m) {
        const std::size_t node = spec.placement == Placement::kStrided ? j + m * jobs : base + m;
        set[m] = static_cast<net::NodeId>(node % spec.cluster_nodes);
      }
      base += spec.placement == Placement::kOverlapping ? std::max<std::size_t>(c.nodes / 2, 1)
                                                         : c.nodes;
    }
  }
  return sets;
}

// --- The key table -------------------------------------------------------------

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// One spec line, tokenized in place the way `std::istream >>` read it:
/// words end at whitespace, and a number is sim::number_prefix() of what
/// follows, so "5x" reads 5 and leaves "x" for the next read.
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

  /// The next value of `kind`, named `what` in a refusal: a number token
  /// for a numeric kind, else a word.
  template <typename Kind>
  auto read(const Kind& kind, std::string_view what) {
    std::string_view token;
    if constexpr (Kind::kNumeric) {
      skip_space();
      token = take(sim::number_prefix(rest_));
    } else {
      token = word(what);
    }
    const auto v = kind.read(token);
    if (!v) {
      if (Kind::kNumeric && !sim::to_double(token)) {
        fail("expected a number for " + std::string(what));
      }
      fail(std::string(what) + " " + kind.refusal());
    }
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

enum Section : std::uint8_t { kPreamble, kJob };

/// What a key prints from and compares: the spec and, for a job key, the
/// class (an empty one for the preamble).
struct View {
  const WorkloadSpec& spec;
  const JobClass& job;
};

/// What a key reads into: the spec, its current class, and what the
/// section remembers across lines.
struct Reading {
  WorkloadSpec& spec;
  JobClass& job;
  /// The class's `location`, kept apart from the family because the
  /// host-RDMA families ignore it while a later `algorithm pe` still pairs
  /// with it; close_class() checks it against the family.
  coll::Location location = coll::Location::kNic;
  bool mix_given = false;  // the class's first mix line replaces the default weights
  std::uint64_t given = 0;  // bit k: kKeys[k] was read in this section
};

struct Key {
  std::string_view name;
  Section section;
  void (*read)(LineReader&, Reading&, std::string_view name);
  /// The value after the key, exactly as read() reads it back.
  void (*print)(std::ostream&, const View&);
  /// Whether two specs hold the same value for the key, field by field.
  bool (*equal)(const View&, const View&);
  /// Whether print_spec() writes the key; one it leaves out holds its
  /// default or a value nothing reads. Null: always.
  bool (*printed)(const View&) = nullptr;
};

/// Equality on what `kField` returns.
template <auto kField>
bool same(const View& a, const View& b) {
  return kField(a) == kField(b);
}

/// A key whose value `kKind` reads into the field `kField` returns.
template <auto kKind, auto kField>
constexpr Key scalar(std::string_view name, Section section,
                     bool (*printed)(const View&) = nullptr) {
  return {name, section,
          [](LineReader& rd, Reading& r, std::string_view key) {
            auto& field = kField(r);
            field = static_cast<std::remove_reference_t<decltype(field)>>(rd.read(kKind, key));
          },
          [](std::ostream& os, const View& v) { os << kKind.print(kField(v)); }, same<kField>,
          printed};
}

// The structured keys read, print and compare themselves.

void read_nic(LineReader& rd, Reading& r, std::string_view key);

void read_topology(LineReader& rd, Reading& r, std::string_view key) {
  const host::TopologyName* t = rd.read(sim::Name<host::kTopologyNames>{}, key);
  r.spec.cluster.topology = t->topology;
  if (t->shaped) {
    const std::string shape(t->name);
    r.spec.cluster.fabric_radix =
        static_cast<std::size_t>(rd.read(host::kFabricRadix, shape + " radix"));
    r.spec.cluster.fabric_oversub =
        static_cast<std::size_t>(rd.read(host::kOversub, shape + " oversubscription"));
  }
}

void print_topology(std::ostream& os, const View& v) {
  const host::TopologyName& t = host::topology_name(v.spec.cluster.topology);
  os << t.name;
  if (t.shaped) os << " " << v.spec.cluster.fabric_radix << " " << v.spec.cluster.fabric_oversub;
}

bool topology_equal(const View& a, const View& b) {
  const host::ClusterParams& x = a.spec.cluster;
  const host::ClusterParams& y = b.spec.cluster;
  return x.topology == y.topology && (!host::topology_name(x.topology).shaped ||
                                      (x.fabric_radix == y.fabric_radix &&
                                       x.fabric_oversub == y.fabric_oversub));
}

constexpr sim::Name<kArrivalNames, &ArrivalName::kind> kArrivalKind;
constexpr sim::Int kWidth{1, std::numeric_limits<std::int64_t>::max()};

void read_arrival(LineReader& rd, Reading& r, std::string_view key) {
  Arrival& a = r.spec.arrival;
  a.kind = rd.read(kArrivalKind, key);
  if (a.kind == ArrivalKind::kClosedLoop) {
    a.width = static_cast<std::size_t>(rd.read(kWidth, "closed-loop width"));
    a.think = rd.read(sim::Micros{}, "closed-loop think time");
  } else {
    a.interval =
        rd.read(sim::Micros{}, a.kind == ArrivalKind::kFixed ? "fixed gap" : "poisson mean gap");
  }
}

void print_arrival(std::ostream& os, const View& v) {
  const Arrival& a = v.spec.arrival;
  os << kArrivalKind.print(a.kind) << " ";
  if (a.kind == ArrivalKind::kClosedLoop) {
    os << a.width << " " << sim::Micros::print(a.think);
  } else {
    os << sim::Micros::print(a.interval);
  }
}

/// The `mix` terms: kind=weight, a weight being a number >= 0.
struct MixTerm {
  std::string_view name;
  double CollectiveMix::*weight;
};
constexpr MixTerm kMixTerms[] = {{"barrier", &CollectiveMix::barrier},
                                 {"bcast", &CollectiveMix::broadcast},
                                 {"broadcast", &CollectiveMix::broadcast},
                                 {"allreduce", &CollectiveMix::allreduce},
                                 {"fuzzy", &CollectiveMix::fuzzy}};
constexpr sim::Real kWeight{0.0, std::numeric_limits<double>::max()};

void read_mix(LineReader& rd, Reading& r, std::string_view) {
  if (!r.mix_given) {
    // First mix line: weights are exactly what the spec says.
    r.job.mix = CollectiveMix{0.0, 0.0, 0.0, 0.0};
    r.mix_given = true;
  }
  bool saw_term = false;
  for (std::string_view term = rd.next_word(); !term.empty(); term = rd.next_word()) {
    const std::size_t eq = term.find('=');
    if (eq == std::string_view::npos) rd.fail("mix terms look like kind=weight");
    const MixTerm* kind = sim::find_named(kMixTerms, term.substr(0, eq));
    if (kind == nullptr) rd.fail("unknown collective '" + std::string(term.substr(0, eq)) + "'");
    const std::optional<double> w = kWeight.read(term.substr(eq + 1));
    if (!w) rd.fail("bad weight in '" + std::string(term) + "' (" + kWeight.refusal() + ")");
    r.job.mix.*kind->weight = *w;
    saw_term = true;
  }
  if (!saw_term) rd.fail("mix needs at least one kind=weight term");
}

void print_mix(std::ostream& os, const View& v) {
  const CollectiveMix& m = v.job.mix;
  os << "barrier=" << sim::Real::print(m.barrier) << " bcast=" << sim::Real::print(m.broadcast)
     << " allreduce=" << sim::Real::print(m.allreduce) << " fuzzy=" << sim::Real::print(m.fuzzy);
}

void read_location(LineReader& rd, Reading& r, std::string_view key) {
  r.location = rd.read(sim::Name<coll::kLocationNames, &coll::LocationName::location>{}, key);
  r.job.barrier.family =
      coll::find_family(coll::family_row(r.job.barrier.family).name, r.location)->family;
}

void read_algorithm(LineReader& rd, Reading& r, std::string_view key) {
  // One key selects the whole family, so the last `algorithm` line wins.
  const std::string_view v = rd.word(key);
  const coll::FamilyRow* row = coll::find_family(v, r.location);
  if (row == nullptr) {
    rd.fail("algorithm must be " + sim::or_list(coll::kFamilies, [](const coll::FamilyRow& f) {
              return std::string(f.name).append(coll::dim_text(f.dim).arg);
            }));
  }
  // A family without a parameter takes the default one, which is also its
  // reduce-tree dimension, so print_spec() loses nothing.
  r.job.barrier = {row->family, coll::FamilyChoice{}.dim};
  if (row->dim != coll::DimRule::kIgnored) {
    const std::string what = std::string(v) + " " + std::string(coll::dim_text(row->dim).what);
    r.job.barrier.dim = static_cast<std::size_t>(rd.read(coll::kDimension, what));
  }
}

void print_algorithm(std::ostream& os, const View& v) {
  const coll::FamilyRow& family = coll::family_row(v.job.barrier.family);
  os << family.name;
  if (family.dim != coll::DimRule::kIgnored) os << " " << v.job.barrier.dim;
}

bool algorithm_equal(const View& a, const View& b) {
  const coll::FamilyChoice& x = a.job.barrier;
  return x.family == b.job.barrier.family &&
         (coll::family_row(x.family).dim == coll::DimRule::kIgnored || x.dim == b.job.barrier.dim);
}

coll::Location location(const View& v) { return coll::family_row(v.job.barrier.family).location; }

/// The `lifecycle` key's values.
struct LifecycleName { bool managed; std::string_view name; };
constexpr LifecycleName kLifecycleNames[] = {{false, "none"}, {true, "managed"}};

bool slo_declared(const View& v) { return !v.job.slo.is_zero(); }
bool managed(const View& v) { return v.job.managed; }

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxReal = std::numeric_limits<double>::max();

/// Every key, in the order print_spec() writes them. A later line of a key
/// replaces an earlier one (`mix` adds terms to the class's first one).
#define NICBAR_FIELD(path) [](auto& t) -> auto& { return t.path; }
constexpr Key kKeys[] = {
    scalar<host::kNodeCount, NICBAR_FIELD(spec.cluster_nodes)>("cluster-nodes", kPreamble),
    {"nic", kPreamble, read_nic,
     [](std::ostream& os, const View& v) { os << nic::nic_model_name(v.spec.cluster.nic); },
     [](const View& a, const View& b) {
       return same<NICBAR_FIELD(spec.cluster.nic.model)>(a, b) &&
              same<NICBAR_FIELD(spec.cluster.nic.clock_mhz)>(a, b);
     }},
    scalar<sim::Name<nic::kReliabilityNames, &nic::ReliabilityName::mode>{},
           NICBAR_FIELD(spec.cluster.nic.barrier_reliability)>("reliability", kPreamble),
    scalar<sim::Int{0, kMaxInt}, NICBAR_FIELD(spec.cluster.nic.barrier_slots)>(
        "nic-slots", kPreamble,
        [](const View& v) {
          return v.spec.cluster.nic.barrier_slots != nic::NicConfig{}.barrier_slots;
        }),
    {"topology", kPreamble, read_topology, print_topology, topology_equal},
    scalar<sim::Name<kPlacementNames, &PlacementName::placement>{}, NICBAR_FIELD(spec.placement)>(
        "placement", kPreamble),
    {"arrival", kPreamble, read_arrival, print_arrival, same<NICBAR_FIELD(spec.arrival)>},
    scalar<sim::kSeed, NICBAR_FIELD(spec.seed)>("seed", kPreamble),
    scalar<sim::Real{0.0, kMaxReal, true}, NICBAR_FIELD(spec.hist_max_us)>("hist-max-us",
                                                                           kPreamble),

    scalar<sim::Int{1, kMaxInt}, NICBAR_FIELD(job.count)>("count", kJob),
    scalar<host::kNodeCount, NICBAR_FIELD(job.nodes)>("nodes", kJob),
    scalar<sim::Int{1, kMaxInt}, NICBAR_FIELD(job.iterations)>("iters", kJob),
    {"mix", kJob, read_mix, print_mix, same<NICBAR_FIELD(job.mix)>},
    scalar<sim::Micros{}, NICBAR_FIELD(job.compute_mean)>("compute-us", kJob),
    scalar<sim::Real{0.0, 1.0, false, true}, NICBAR_FIELD(job.compute_imbalance)>("imbalance",
                                                                                  kJob),
    scalar<sim::Micros{}, NICBAR_FIELD(job.start_skew)>("skew-us", kJob),
    {"location", kJob, read_location,
     [](std::ostream& os, const View& v) { os << coll::location_name(location(v)); },
     same<location>},
    {"algorithm", kJob, read_algorithm, print_algorithm, algorithm_equal},
    scalar<sim::Micros{}, NICBAR_FIELD(job.fuzzy_chunk)>("fuzzy-chunk-us", kJob),
    scalar<sim::Micros{}, NICBAR_FIELD(job.deadline)>("deadline-us", kJob),
    scalar<sim::Micros{}, NICBAR_FIELD(job.layer_overhead)>(
        "layer-us", kJob, [](const View& v) { return !v.job.layer_overhead.is_zero(); }),
    // The SLO and lifecycle keys ride only on classes that declare one, so
    // specs without them print as they did before those keys existed.
    scalar<sim::Micros{}, NICBAR_FIELD(job.slo)>("slo-us", kJob, slo_declared),
    scalar<sim::Real{0.0, 1.0, true, true}, NICBAR_FIELD(job.slo_target)>("slo-target", kJob,
                                                                           slo_declared),
    scalar<sim::Micros{}, NICBAR_FIELD(job.slo_window)>("slo-window-us", kJob, slo_declared),
    scalar<sim::Name<kLifecycleNames, &LifecycleName::managed>{}, NICBAR_FIELD(job.managed)>(
        "lifecycle", kJob, managed),
    scalar<sim::Int{0, kMaxInt}, NICBAR_FIELD(job.promote_every)>("promote-every", kJob, managed),
};
#undef NICBAR_FIELD
static_assert(std::size(kKeys) <= 64, "Reading::given holds one bit per key");

constexpr std::uint64_t key_bit(std::string_view name) {
  return std::uint64_t{1} << (sim::find_named(kKeys, name) - kKeys);
}

void read_nic(LineReader& rd, Reading& r, std::string_view key) {
  nic::NicConfig card = rd.read(sim::Name<nic::kNicModels>{}, key)->make();
  // The card comes first and the keys that override it after, whatever
  // their order in the preamble.
  if ((r.given & key_bit("reliability")) != 0) {
    card.barrier_reliability = r.spec.cluster.nic.barrier_reliability;
  }
  if ((r.given & key_bit("nic-slots")) != 0) {
    card.barrier_slots = r.spec.cluster.nic.barrier_slots;
  }
  r.spec.cluster.nic = std::move(card);
}

void print_section(std::ostream& os, const View& v, Section section, std::string_view indent) {
  for (const Key& k : kKeys) {
    if (k.section != section || (k.printed != nullptr && !k.printed(v))) continue;
    os << indent << k.name << " ";
    k.print(os, v);
    os << "\n";
  }
}

/// Whether the keys of `section` hold the same values either side; a key
/// neither side prints holds nothing the format carries.
bool section_equal(const View& a, const View& b, Section section) {
  return std::all_of(std::begin(kKeys), std::end(kKeys), [&](const Key& k) {
    if (k.section != section) return true;
    const bool shown = k.printed == nullptr || k.printed(a);
    return (k.printed == nullptr || k.printed(b) == shown) && (!shown || k.equal(a, b));
  });
}

/// The class's `location` must suit its family.
void close_class(const Reading& r) {
  const std::string why = coll::family_refusal(r.job.barrier.family, {.location = r.location});
  if (!why.empty()) {
    throw std::runtime_error("workload spec: class '" + r.job.name + "': " + why);
  }
}

}  // namespace

WorkloadSpec parse_workload_spec(std::istream& in) {
  WorkloadSpec spec;
  JobClass preamble;  // no preamble key writes the class
  std::optional<Reading> r(std::in_place, spec, preamble);
  bool in_job = false;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    LineReader rd(line, line_no);
    const std::string_view name = rd.next_word();
    if (name.empty()) continue;  // blank / comment-only

    if (name == "job") {
      // A class header: the keys below apply to a new class.
      if (in_job) close_class(*r);
      JobClass c;
      c.name = std::string(rd.word("job name"));
      rd.expect_end();
      spec.classes.push_back(std::move(c));
      r.emplace(spec, spec.classes.back());
      in_job = true;
      continue;
    }
    const Section section = in_job ? kJob : kPreamble;
    const Key* key = nullptr;
    for (const Key& k : kKeys) {
      if (k.section == section && k.name == name) {
        key = &k;
        break;
      }
    }
    if (key == nullptr) {
      rd.fail(in_job ? "unknown job key '" + std::string(name) + "'"
                     : "unknown key '" + std::string(name) + "' (before the first job)");
    }
    key->read(rd, *r, key->name);
    r->given |= std::uint64_t{1} << (key - kKeys);
    rd.expect_end();
  }
  if (in_job) close_class(*r);

  try {
    validate(spec);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  return spec;
}

WorkloadSpec parse_workload_spec(const std::string& text) {
  std::istringstream is(text);
  return parse_workload_spec(is);
}

void print_spec(const WorkloadSpec& spec, std::ostream& os) {
  const JobClass none;
  print_section(os, {spec, none}, kPreamble, "");
  for (const JobClass& c : spec.classes) {
    os << "\njob " << c.name << "\n";
    print_section(os, {spec, c}, kJob, "  ");
  }
}

std::string print_spec(const WorkloadSpec& spec) {
  std::ostringstream os;
  print_spec(spec, os);
  return os.str();
}

bool spec_equal(const WorkloadSpec& a, const WorkloadSpec& b) {
  const JobClass none;
  return section_equal({a, none}, {b, none}, kPreamble) &&
         std::equal(a.classes.begin(), a.classes.end(), b.classes.begin(), b.classes.end(),
                    [&](const JobClass& x, const JobClass& y) {
                      return x.name == y.name && section_equal({a, x}, {b, y}, kJob);
                    });
}

}  // namespace nicbar::wl
