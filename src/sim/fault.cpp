#include "sim/fault.hpp"

#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sim/value.hpp"

namespace nicbar::sim::fault {

namespace {

constexpr Real kProbability{0.0, 1.0};
constexpr Int kId{0, std::numeric_limits<std::uint32_t>::max()};

/// A time in microseconds, or `-` for never.
struct Time {
  static std::optional<SimTime> read(std::string_view tok) {
    if (tok == "-") return SimTime::max();
    const std::optional<Duration> d = Micros::read(tok);
    return d ? std::optional(SimTime{0} + *d) : std::nullopt;
  }
  static std::string refusal() { return Micros::refusal() + " or -"; }
};

/// One plan line's operands, read in order, each by its sim/value.hpp kind;
/// every refusal names the line and the field.
struct Operands {
  std::istringstream in;
  int line_no;
  const std::string& line;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("fault plan line " + std::to_string(line_no) + ": " + why +
                             ": \"" + line + "\"");
  }
  /// The next token; empty when the line has no more.
  std::string next() {
    std::string tok;
    in >> tok;
    return tok;
  }
  bool more() { return !(in >> std::ws).eof(); }
  /// The next token read as `kind`; `field` names it in a refusal.
  template <typename Kind>
  auto read(const Kind& kind, const std::string& field) {
    const std::string tok = next();
    if (tok.empty()) fail("missing " + field);
    const auto v = kind.read(tok);
    if (!v) fail(field + " " + kind.refusal());
    return *v;
  }
  /// The optional trailing link pattern; `*` and absence mean every link.
  std::string link() {
    const std::string tok = next();
    return tok == "*" ? std::string{} : tok;
  }
};

}  // namespace

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    Operands ops{std::istringstream(line.substr(0, line.find('#'))), line_no, line};
    const std::string verb = ops.next();
    if (verb.empty()) continue;  // blank / comment-only line

    if (verb == "seed") {
      plan.seed = ops.read(kSeed, "seed");
    } else if (verb == "loss") {
      UniformLoss l;
      l.prob = ops.read(kProbability, "loss probability");
      l.link = ops.link();
      plan.loss.push_back(std::move(l));
    } else if (verb == "burst") {
      BurstLoss b;
      b.p_enter_bad = ops.read(kProbability, "p_enter_bad");
      b.p_exit_bad = ops.read(kProbability, "p_exit_bad");
      b.loss_bad = ops.read(kProbability, "loss_bad");
      b.link = ops.link();
      plan.bursts.push_back(std::move(b));
    } else if (verb == "corrupt") {
      Corruption c;
      c.prob = ops.read(kProbability, "corruption probability");
      c.link = ops.link();
      plan.corruption.push_back(std::move(c));
    } else if (verb == "link-down") {
      LinkDownWindow w;
      w.from = ops.read(Time{}, "from time");
      w.until = ops.read(Time{}, "until time");
      w.link = ops.link();
      if (w.until <= w.from) ops.fail("window ends before it starts");
      plan.link_down.push_back(std::move(w));
    } else if (verb == "nic-crash") {
      NicCrash c;
      c.line = line_no;
      c.node = static_cast<std::uint32_t>(ops.read(kId, "node id"));
      c.at = ops.read(Time{}, "crash time");
      if (ops.more()) c.restart_at = ops.read(Time{}, "restart time");
      if (c.restart_at <= c.at) ops.fail("restart precedes crash");
      plan.nic_crashes.push_back(c);
    } else if (verb == "switch-port-down") {
      SwitchPortDown s;
      s.line = line_no;
      s.switch_id = static_cast<std::size_t>(ops.read(kId, "switch id"));
      s.port = static_cast<std::size_t>(ops.read(kId, "port"));
      s.from = ops.read(Time{}, "from time");
      s.until = ops.read(Time{}, "until time");
      if (s.until <= s.from) ops.fail("window ends before it starts");
      plan.switch_ports_down.push_back(s);
    } else {
      ops.fail("unknown directive '" + verb + "'");
    }
    if (ops.more()) ops.fail("unexpected '" + ops.next() + "' after the last field");
  }
  return plan;
}

FaultPlan parse_fault_plan(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_plan(in);
}

}  // namespace nicbar::sim::fault
