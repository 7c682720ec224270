// Cluster assembly: simulator + fabric + per-node (host CPU, PCI bus, NIC),
// mirroring the paper's testbed of N hosts on one Myrinet switch.
//
// A Cluster owns everything; user code opens gm::Ports on nodes and spawns
// host processes (sim::Task coroutines) that use them.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include <optional>

#include "fabric/topology.hpp"
#include "gm/config.hpp"
#include "gm/port.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "nic/config.hpp"
#include "nic/nic.hpp"
#include "sim/fault.hpp"
#include "sim/pdes.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/telemetry.hpp"

namespace nicbar::host {

enum class Topology {
  kSingleSwitch,  // the paper's testbeds (8/16-port switch)
  kFatTree,       // fabric:: folded Clos, 2-3 levels
  kLeafSpine,     // fabric:: strictly two-level variant
};

/// Name table (sim/names.hpp) for `--topology` and the workload `topology`
/// key, indexed by the enum. A `shaped` topology takes a radix and an
/// oversubscription ratio.
struct TopologyName {
  Topology topology;
  std::string_view name;
  bool shaped;
};
inline constexpr TopologyName kTopologyNames[] = {{Topology::kSingleSwitch, "switch", false},
                                                  {Topology::kFatTree, "fat-tree", true},
                                                  {Topology::kLeafSpine, "leaf-spine", true}};
[[nodiscard]] constexpr const TopologyName& topology_name(Topology t) {
  return kTopologyNames[static_cast<std::size_t>(t)];
}

struct ClusterParams {
  std::size_t nodes = 2;
  nic::NicConfig nic = nic::lanai43();
  gm::GmConfig gm;
  net::LinkParams link;
  net::SwitchParams sw;
  Topology topology = Topology::kSingleSwitch;
  std::size_t fabric_radix = 16;     // kFatTree / kLeafSpine switch radix
  std::size_t fabric_oversub = 1;    // leaf oversubscription ratio q in q:1
  /// The paper's hosts were dual-processor Pentium II machines.
  std::size_t host_cpus = 2;
  /// Optional observability bundle (non-owning; must outlive the Cluster).
  /// When null — the default — every instrumentation hook is one untaken
  /// branch and the simulation timeline is bit-identical to no telemetry.
  sim::telemetry::Telemetry* telemetry = nullptr;
  /// Declarative fault schedule, armed at construction. An empty plan (the
  /// default) arms nothing and the timeline is bit-identical to a fault-free
  /// build — fault hooks cost zero when no plan is installed.
  sim::fault::FaultPlan faults;
  /// Conservative PDES (sim::pdes): number of model partitions. 1 — the
  /// default — uses the classic serial engine, untouched. > 1 splits nodes
  /// into contiguous blocks (leaf-aligned for kFatTree/kLeafSpine, so
  /// host↔leaf traffic never crosses a partition), each block on its own
  /// simulator lane synchronized by lookahead windows; the timeline is
  /// bit-identical to the serial engine. Clamped to the leaf count
  /// (fabrics) or node count (single switch). Requires
  /// link.propagation > 0 — that delay is the lookahead.
  std::size_t pdes_partitions = 1;
  /// Worker threads for the partitioned run. 0 — the default — uses the
  /// hardware concurrency; values beyond the partition count are harmless.
  /// Any worker count produces the same timeline; this knob is speed only.
  unsigned pdes_workers = 0;
};

/// One machine: host CPU(s), a PCI bus, and a programmable NIC.
struct Node {
  explicit Node(sim::Simulator& sim, std::size_t cpus, net::NodeId id)
      : host_cpu(sim, cpus), pci(sim, "pci" + std::to_string(id)) {}
  sim::Resource host_cpu;
  sim::BusyServer pci;
  std::unique_ptr<nic::Nic> nic;
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);

  /// The build/lane-0 simulator. Serial clusters own exactly one engine and
  /// this is it; partitioned clusters return lane 0, which is correct for
  /// global reads (now(), metric denominators) but NOT for spawning node
  /// work — use sim_for(node) so the process runs on the node's own lane.
  [[nodiscard]] sim::Simulator& sim() { return pdes_ ? pdes_->lane(0) : sim_; }

  /// The simulator lane that owns `id`'s host CPU, PCI bus, and NIC. Equal
  /// to sim() when the cluster is not partitioned.
  [[nodiscard]] sim::Simulator& sim_for(net::NodeId id) {
    return pdes_ ? pdes_->lane(node_partition_.at(id)) : sim_;
  }

  /// The partition owning node `id` (0 when not partitioned).
  [[nodiscard]] std::size_t partition_of(net::NodeId id) const {
    return node_partition_.empty() ? 0 : node_partition_.at(id);
  }

  /// The partition owning switch `id` (0 when not partitioned).
  [[nodiscard]] std::size_t switch_partition_of(int id) const {
    return switch_partition_.empty()
               ? 0
               : static_cast<std::size_t>(switch_partition_.at(static_cast<std::size_t>(id)));
  }

  /// The partitioned engine, or nullptr when pdes_partitions resolved to 1.
  [[nodiscard]] sim::pdes::PartitionedSimulator* pdes() { return pdes_.get(); }

  /// Runs the simulation to completion (or `until`) on whichever engine the
  /// params selected, and — on the partitioned engine — canonicalizes the
  /// causal tracer so span ids, critical paths, and completion records read
  /// identically to a serial run. Returns the number of events executed.
  std::uint64_t run_all(sim::SimTime until = sim::SimTime::max());

  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(net::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] nic::Nic& nic(net::NodeId id) { return *nodes_.at(id)->nic; }
  [[nodiscard]] const ClusterParams& params() const { return params_; }

  /// The resolved fabric shape when the topology is kFatTree/kLeafSpine;
  /// nullptr for the single switch. The hierarchical barrier
  /// family reads leaf membership from this.
  [[nodiscard]] const fabric::Fabric* fabric() const {
    return fabric_.has_value() ? &*fabric_ : nullptr;
  }

  /// Creates and opens a GM port on `node`.
  [[nodiscard]] std::unique_ptr<gm::Port> open_port(net::NodeId node, nic::PortId port);

  /// Creates a port without opening it (for closed-port policy tests).
  [[nodiscard]] std::unique_ptr<gm::Port> make_port(net::NodeId node, nic::PortId port);

  /// Copies the cluster's hardware counters into the attached telemetry
  /// registry: per-NIC reliability/barrier counters, per-engine processor
  /// occupancy, PCI-bus and link utilisation, switch forwarding totals.
  /// No-op when no telemetry bundle is attached. Call after sim().run().
  void snapshot_metrics();

 private:
  /// Translates params_.faults into link/switch/NIC hooks and scheduled
  /// down/up, crash/restart transitions. Each (feature, link) pair gets its
  /// own RNG stream derived from the plan seed, so adding one fault never
  /// perturbs the draws of another. Under PDES each transition is scheduled
  /// on the owning element's lane.
  void arm_faults();

  /// Resolves pdes_partitions against the topology (leaf-aligned blocks for
  /// fabrics, contiguous node blocks otherwise), builds the partition maps,
  /// creates the lanes, and rebinds the already-built network onto them.
  /// No-op (serial engine) when the clamped partition count is 1.
  void setup_partitions();

  [[nodiscard]] sim::Simulator& sim_for_switch(std::size_t id) {
    return pdes_ ? pdes_->lane(static_cast<std::size_t>(switch_partition_.at(id))) : sim_;
  }

  ClusterParams params_;
  sim::Simulator sim_;
  std::unique_ptr<sim::pdes::PartitionedSimulator> pdes_;
  std::unique_ptr<net::Network> net_;
  std::optional<fabric::Fabric> fabric_;
  std::vector<int> node_partition_;    // empty when not partitioned
  std::vector<int> switch_partition_;  // empty when not partitioned
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace nicbar::host
