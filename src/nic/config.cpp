#include "nic/config.hpp"

namespace nicbar::nic {

NicConfig lanai43() {
  NicConfig c;
  c.model = "LANai-4.3";
  c.clock_mhz = 33.0;
  c.pci_bandwidth_mbps = 132.0;
  return c;
}

NicConfig lanai72() {
  NicConfig c;
  c.model = "LANai-7.2";
  c.clock_mhz = 66.0;
  c.pci_bandwidth_mbps = 264.0;  // 64-bit PCI on the 7.x series
  return c;
}

std::string_view nic_model_name(const NicConfig& cfg) {
  for (const NicModel& m : kNicModels) {
    if (cfg.model == m.make().model) return m.name;
  }
  return kNicModels[cfg.clock_mhz >= 50.0 ? 1 : 0].name;
}

}  // namespace nicbar::nic
