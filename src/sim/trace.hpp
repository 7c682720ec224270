// Lightweight category-filtered tracing.
//
// Hardware-model classes emit trace lines through a Tracer so that tests and
// debugging sessions can watch packet/DMA/firmware activity. Tracing is off
// by default. A disabled site costs one branch only if it tests on() before
// evaluating its arguments: the NIC's sites do (NICBAR_NIC_TRACE), so no
// packet description is formatted while tracing is off.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "sim/time.hpp"

namespace nicbar::sim {

enum class TraceCategory : std::uint32_t {
  kHost = 1u << 0,     // host library calls and completions
  kSdma = 1u << 1,     // SDMA engine (host -> NIC)
  kSend = 1u << 2,     // SEND engine (NIC -> wire)
  kRecv = 1u << 3,     // RECV engine (wire -> NIC)
  kRdma = 1u << 4,     // RDMA engine (NIC -> host)
  kNet = 1u << 5,      // links and switches
  kBarrier = 1u << 6,  // barrier firmware decisions
  kReliab = 1u << 7,   // acks, nacks, retransmissions
  kAll = 0xffffffffu,
};

class Tracer {
 public:
  Tracer() = default;

  /// Directs output to `os` (nullptr disables) for categories in `mask`.
  /// The mask is kept as given even when `os` is null so that a later
  /// enable(os) picks the filter back up; on() gates on the stream, which
  /// preserves the one-untaken-branch disabled path at every call site.
  void enable(std::ostream* os, std::uint32_t mask = static_cast<std::uint32_t>(TraceCategory::kAll)) {
    os_ = os;
    mask_ = mask;
  }

  [[nodiscard]] bool on(TraceCategory c) const {
    return os_ != nullptr && (mask_ & static_cast<std::uint32_t>(c)) != 0;
  }

  /// printf-style trace line, prefixed with the simulated time.
  void log(TraceCategory c, SimTime at, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

 private:
  std::ostream* os_ = nullptr;
  std::uint32_t mask_ = 0;
};

/// Parses a comma-separated category list ("host,sdma,send,recv,rdma,net,
/// barrier,reliab" or "all") into a TraceCategory bit mask. Names are
/// case-sensitive and match the enumerators without the k prefix; empty
/// elements are rejected. Returns nullopt on any unknown name.
[[nodiscard]] std::optional<std::uint32_t> parse_trace_mask(const std::string& spec);

/// The accepted names for parse_trace_mask, for help text and error messages.
[[nodiscard]] const char* trace_mask_names();

}  // namespace nicbar::sim
