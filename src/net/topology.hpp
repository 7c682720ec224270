// The paper's testbed topology: N hosts on one 8- or 16-port Myrinet
// switch, host i on port i, so the route to host d is the single byte {d}.
//
// Multi-switch fabrics (fat-tree, leaf-spine) live in fabric::. Every
// builder adds terminals 0..n-1 in order and finalizes the network with
// its closed-form route function.
#pragma once

#include <cstddef>

#include "net/network.hpp"

namespace nicbar::net {

/// All `nodes` terminals on one switch with `nodes` ports. Throws
/// std::invalid_argument beyond kMaxSwitchPorts nodes.
void build_single_switch(Network& net, std::size_t nodes);

}  // namespace nicbar::net
