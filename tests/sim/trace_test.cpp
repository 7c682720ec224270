// Trace categories: the --trace-mask names parse to the Perfetto sink's
// category bits, and only to those.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

namespace nicbar {
namespace {

using sim::TraceCategory;

TEST(TraceMaskTest, ParsesSingleNamesAndLists) {
  EXPECT_EQ(sim::parse_trace_mask("sdma"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kSdma)));
  EXPECT_EQ(sim::parse_trace_mask("send,recv"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kSend) |
                                         static_cast<std::uint32_t>(TraceCategory::kRecv)));
  EXPECT_EQ(sim::parse_trace_mask("all"),
            std::optional<std::uint32_t>(static_cast<std::uint32_t>(TraceCategory::kAll)));
  // Every documented name parses to exactly one bit (or kAll).
  for (const char* name : {"sdma", "send", "recv", "rdma", "net"}) {
    const auto m = sim::parse_trace_mask(name);
    ASSERT_TRUE(m.has_value()) << name;
    EXPECT_EQ(__builtin_popcount(*m), 1) << name;
  }
}

TEST(TraceMaskTest, RejectsUnknownAndEmptyElements) {
  EXPECT_FALSE(sim::parse_trace_mask("").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("bogus").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("net,").has_value());
  EXPECT_FALSE(sim::parse_trace_mask(",net").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("sdma,,net").has_value());
  EXPECT_FALSE(sim::parse_trace_mask("Net").has_value());  // case-sensitive
  // Categories nothing emits are not names: a mask of them would select
  // no event at all.
  for (const char* gone : {"host", "barrier", "reliab", "barrier,reliab"}) {
    EXPECT_FALSE(sim::parse_trace_mask(gone).has_value()) << gone;
  }
  // The error-message helper names every accepted category.
  EXPECT_EQ(sim::trace_mask_names(), "sdma,send,recv,rdma,net,all");
}

}  // namespace
}  // namespace nicbar
