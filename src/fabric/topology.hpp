// Hierarchical fabrics: folded-Clos/fat-tree and leaf-spine builders that
// scale the simulated cluster to thousands of nodes.
//
// Like net::build_single_switch, these builders finalize the Network with a
// closed-form route function: up/down routing with deterministic
// per-destination uplink spreading, computed from (src, dst) alone on every
// injection. Nothing is stored per pair, so a 4096-node fabric costs no
// route memory.
//
// Shapes (radix-k switches, oversubscription ratio q : 1 at the leaf):
//   u = max(1, k / (1 + q)) uplinks per leaf, h = k - u host ports.
//
//   leaf-spine  — strictly two levels: u spine switches, leaf i's uplink j
//                 cabled to spine j port i. Capacity k·h.
//   fat-tree    — two levels while N fits k·h, else the three-level k-ary
//                 folded Clos: pods of h leaves + u aggregation switches,
//                 u·u core switches (agg j of every pod reaches cores
//                 [j·u, (j+1)·u)). Capacity k·h².
//
// A radix-k switch tree (hosts on k−1 ports of each leaf, one uplink per
// switch) is the fat-tree with q = k−1: u = 1, h = k−1.
//
// Builders add terminals 0..n-1 in order and finalize the network. Partial
// fabrics (N below capacity) still build the full spine/agg/core column set
// so uplink spreading — and therefore the routes of the nodes that do
// exist — never depends on N.
#pragma once

#include <cstddef>

#include "net/network.hpp"

namespace nicbar::fabric {

enum class Kind {
  kFatTree,
  kLeafSpine,
};

/// The resolved shape of a built fabric. Everything the hierarchical
/// barrier family needs — which leaf a node hangs off, how many nodes
/// share it — is derivable from these scalars.
struct Fabric {
  Kind kind = Kind::kFatTree;
  std::size_t nodes = 0;
  std::size_t radix = 0;
  std::size_t oversub = 1;  // q in q:1 (1 = non-blocking at the leaf)
  int levels = 2;
  std::size_t hosts_per_leaf = 0;    // h
  std::size_t uplinks_per_leaf = 0;  // u
  std::size_t num_leaves = 0;
  std::size_t leaves_per_pod = 0;  // 3-level only (= h); 0 for 2-level
  std::size_t num_pods = 0;        // 3-level only; 0 for 2-level
  std::size_t capacity = 0;        // max nodes this (radix, oversub, levels) supports

  /// The leaf switch index a terminal hangs off. Nodes are packed onto
  /// leaves in order, h per leaf.
  [[nodiscard]] std::size_t leaf_of(net::NodeId n) const { return n / hosts_per_leaf; }

  /// Number of terminals on leaf `leaf` (the last leaf may be partial).
  [[nodiscard]] std::size_t leaf_population(std::size_t leaf) const;

  /// First terminal on leaf `leaf`.
  [[nodiscard]] net::NodeId leaf_first(std::size_t leaf) const {
    return static_cast<net::NodeId>(leaf * hosts_per_leaf);
  }

  /// The closed-form up/down route from src to dst (terminal exit port
  /// included; empty for src == dst). Deterministic: uplink = dst mod u,
  /// core column = (dst / u) mod u — all traffic to one destination uses
  /// one up-path from any source, so routes are reproducible regardless
  /// of build order, worker count, or which pairs were routed first.
  [[nodiscard]] net::Route route(net::NodeId src, net::NodeId dst) const;
};

/// The most nodes a (kind, radix, oversub) fabric holds: k·h² for a
/// fat-tree, k·h for a leaf-spine. `radix` must be >= 3.
[[nodiscard]] std::size_t capacity(Kind kind, std::size_t radix, std::size_t oversub);

/// Builds a fat-tree (folded Clos) of `radix`-port switches: two levels
/// while `nodes` fits radix·h, else three. Finalizes `net` with the
/// closed-form route function. Throws std::invalid_argument on radix < 3,
/// radix > net::kMaxSwitchPorts, oversub < 1, nodes == 0, or nodes beyond
/// the three-level capacity (the diagnostic names the limit).
Fabric build_fat_tree(net::Network& net, std::size_t nodes, std::size_t radix,
                      std::size_t oversub = 1);

/// Builds the strictly two-level leaf-spine variant (u spines, capacity
/// radix·h). Same validation contract as build_fat_tree.
Fabric build_leaf_spine(net::Network& net, std::size_t nodes, std::size_t radix,
                        std::size_t oversub = 1);

}  // namespace nicbar::fabric
