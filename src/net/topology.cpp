#include "net/topology.hpp"

namespace nicbar::net {

void build_single_switch(Network& net, std::size_t nodes) {
  const int sw = net.add_switch(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId t = net.add_terminal();
    net.connect_terminal(t, sw, i);
  }
  net.finalize([](NodeId, NodeId dst) { return Route{static_cast<std::uint8_t>(dst)}; });
}

}  // namespace nicbar::net
