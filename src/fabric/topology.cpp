#include "fabric/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace nicbar::fabric {

namespace {

const char* kind_name(Kind k) { return k == Kind::kFatTree ? "fat-tree" : "leaf-spine"; }

std::size_t uplinks(std::size_t radix, std::size_t oversub) {
  return std::max<std::size_t>(1, radix / (1 + oversub));
}

/// Validates the parameters and resolves the whole shape. Throws with the
/// topology name so `nicbar_run` can surface the message verbatim.
Fabric resolve_shape(Kind kind, std::size_t nodes, std::size_t radix, std::size_t oversub) {
  const std::string name = kind_name(kind);
  if (radix < 3) {
    throw std::invalid_argument(name + " radix must be >= 3 (got " + std::to_string(radix) +
                                "): a leaf needs at least one host port and one uplink");
  }
  if (oversub < 1) {
    throw std::invalid_argument(name + " oversubscription ratio must be >= 1 (got 0)");
  }
  if (nodes == 0) {
    throw std::invalid_argument(name + " needs at least one node (got 0)");
  }
  Fabric f;
  f.kind = kind;
  f.nodes = nodes;
  f.radix = radix;
  f.oversub = oversub;
  f.uplinks_per_leaf = uplinks(radix, oversub);
  f.hosts_per_leaf = radix - f.uplinks_per_leaf;
  f.num_leaves = (nodes + f.hosts_per_leaf - 1) / f.hosts_per_leaf;
  f.capacity = capacity(kind, radix, oversub);
  // A fat-tree stays two levels (structurally the leaf-spine wiring) while
  // N fits radix·h, so the same topology key scales through the 2→3 level
  // transition without re-selection.
  if (kind == Kind::kFatTree && nodes > radix * f.hosts_per_leaf) {
    f.levels = 3;
    f.leaves_per_pod = f.hosts_per_leaf;
    f.num_pods = (f.num_leaves + f.leaves_per_pod - 1) / f.leaves_per_pod;
  }
  if (f.nodes > f.capacity) {
    throw std::invalid_argument(
        name + "(radix=" + std::to_string(f.radix) + ", oversub=" + std::to_string(f.oversub) +
        ") caps at " + std::to_string(f.capacity) + " nodes across " +
        std::to_string(kind == Kind::kFatTree ? 3 : 2) + " levels (" +
        std::to_string(f.hosts_per_leaf) + " hosts/leaf); got " + std::to_string(f.nodes));
  }
  return f;
}

std::vector<int> add_switches(net::Network& net, std::size_t count, std::size_t radix) {
  std::vector<int> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(net.add_switch(radix));
  return ids;
}

/// Cables the hosts onto their leaves and installs the closed-form routes.
void attach_and_finalize(net::Network& net, const Fabric& f, const std::vector<int>& leaves) {
  for (std::size_t n = 0; n < f.nodes; ++n) {
    const net::NodeId t = net.add_terminal();
    net.connect_terminal(t, leaves[n / f.hosts_per_leaf], n % f.hosts_per_leaf);
  }
  net.finalize([f](net::NodeId src, net::NodeId dst) { return f.route(src, dst); });
}

/// Two levels: leaf i's uplink j is cabled to spine j port i. The full
/// spine column is always built, even for partial fabrics, so `dst % u`
/// spreading addresses the same switches at any N.
Fabric build_two_level(net::Network& net, const Fabric& f) {
  const std::vector<int> leaves = add_switches(net, f.num_leaves, f.radix);
  const std::vector<int> spines = add_switches(net, f.uplinks_per_leaf, f.radix);
  for (std::size_t i = 0; i < f.num_leaves; ++i) {
    for (std::size_t j = 0; j < f.uplinks_per_leaf; ++j) {
      net.connect_switches(leaves[i], f.hosts_per_leaf + j, spines[j], i);
    }
  }
  attach_and_finalize(net, f, leaves);
  return f;
}

}  // namespace

std::size_t capacity(Kind kind, std::size_t radix, std::size_t oversub) {
  const std::size_t h = radix - uplinks(radix, oversub);
  // A spine (or core) switch has `radix` leaf- (or pod-) facing ports.
  return kind == Kind::kFatTree ? radix * h * h : radix * h;
}

std::size_t Fabric::leaf_population(std::size_t leaf) const {
  const std::size_t first = leaf * hosts_per_leaf;
  if (first >= nodes) return 0;
  return std::min(hosts_per_leaf, nodes - first);
}

net::Route Fabric::route(net::NodeId src, net::NodeId dst) const {
  if (src == dst) return {};
  const std::size_t h = hosts_per_leaf;
  const std::size_t u = uplinks_per_leaf;
  const auto host_port = static_cast<std::uint8_t>(dst % h);
  const std::size_t src_leaf = src / h;
  const std::size_t dst_leaf = dst / h;
  if (src_leaf == dst_leaf) return {host_port};

  // Per-destination spreading: every source picks the same uplink column
  // (and, three levels up, the same core column) for a given destination.
  const auto up = static_cast<std::uint8_t>(h + dst % u);
  if (levels == 2) {
    // leaf --up--> spine (dst % u) --port dst_leaf--> leaf --> host.
    return {up, static_cast<std::uint8_t>(dst_leaf), host_port};
  }
  const std::size_t src_pod = src_leaf / leaves_per_pod;
  const std::size_t dst_pod = dst_leaf / leaves_per_pod;
  const auto dst_leaf_in_pod = static_cast<std::uint8_t>(dst_leaf % leaves_per_pod);
  if (src_pod == dst_pod) {
    // leaf --up--> agg (pod, dst % u) --down--> leaf --> host.
    return {up, dst_leaf_in_pod, host_port};
  }
  // leaf --up--> agg --core column (dst / u) % u--> core --port dst_pod-->
  // agg (dst_pod, dst % u) --down--> leaf --> host.
  const auto core_col = static_cast<std::uint8_t>(h + (dst / u) % u);
  return {up, core_col, static_cast<std::uint8_t>(dst_pod), dst_leaf_in_pod, host_port};
}

Fabric build_leaf_spine(net::Network& net, std::size_t nodes, std::size_t radix,
                        std::size_t oversub) {
  return build_two_level(net, resolve_shape(Kind::kLeafSpine, nodes, radix, oversub));
}

Fabric build_fat_tree(net::Network& net, std::size_t nodes, std::size_t radix,
                      std::size_t oversub) {
  const Fabric f = resolve_shape(Kind::kFatTree, nodes, radix, oversub);
  if (f.levels == 2) return build_two_level(net, f);

  // Three-level k-ary folded Clos: pods of h leaves and u aggregation
  // switches; agg j of every pod is cabled to core column
  // [j·u, (j+1)·u). Core port index = pod index, so pods ≤ radix.
  const std::size_t h = f.hosts_per_leaf;
  const std::size_t u = f.uplinks_per_leaf;
  const std::vector<int> leaves = add_switches(net, f.num_leaves, radix);
  const std::vector<int> aggs = add_switches(net, f.num_pods * u, radix);  // agg[p * u + j]
  const std::vector<int> cores = add_switches(net, u * u, radix);          // core[j * u + m]
  for (std::size_t L = 0; L < f.num_leaves; ++L) {
    const std::size_t p = L / h;
    const std::size_t l = L % h;  // agg down-port
    for (std::size_t j = 0; j < u; ++j) {
      net.connect_switches(leaves[L], h + j, aggs[p * u + j], l);
    }
  }
  for (std::size_t p = 0; p < f.num_pods; ++p) {
    for (std::size_t j = 0; j < u; ++j) {
      for (std::size_t m = 0; m < u; ++m) {
        net.connect_switches(aggs[p * u + j], h + m, cores[j * u + m], p);
      }
    }
  }
  attach_and_finalize(net, f, leaves);
  return f;
}

}  // namespace nicbar::fabric
