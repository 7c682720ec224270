// The barrier families, one table row each: the paper's four (host or NIC,
// pairwise exchange or gather-broadcast; §6, Fig. 5), the two-level
// hierarchical NIC family and the two host-RDMA families over rma::.
//
// A BarrierSpec selects its family through four overlapping fields
// (location, algorithm, rdma, hierarchical). family_of() is the only reader
// of that combination and family_spec() the only writer; everything that
// parses, prints, validates, labels or draws a family reads the row. The
// spec keeps its fields because the benchmark harness builds and reads them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "coll/barrier.hpp"

namespace nicbar::coll {

enum class Family : std::uint8_t {
  kNicPe, kNicGb, kHostPe, kHostGb, kHier, kHostDissem, kHostTree
};

/// What a family makes of its one integer parameter: `--dim`, the argument
/// of the workload `algorithm` key, BarrierSpec::gb_dimension.
enum class DimRule : std::uint8_t {
  kIgnored,      // PE, host-dissem
  kGbDimension,  // GB tree dimension; the CLI reads 0 as "sweep 1..N-1"
  kHierIntra,    // hier intra-block GB dimension, >= 1
  kTreeRadix,    // host-tree put-tree radix, >= 1
};

/// Per DimRule: the parameter in a usage line, its name in a parse error,
/// and the refusal of 0.
struct DimText {
  std::string_view arg, what, zero;
};
inline constexpr DimText kDimTexts[] = {
    {"", "", ""},
    {" <dim>", "dimension", "GB needs a positive tree dimension"},
    {" <dim>", "dimension", "hier needs a positive intra-block dimension"},
    {" <radix>", "radix", "host-tree needs a positive radix"}};

struct FamilyRow {
  Family family;
  /// `--algorithm` / workload `algorithm` value; "pe" and "gb" name two
  /// rows each, told apart by `location` (the `--location` they pair with).
  std::string_view name;
  Location location;
  bool any_location;        // host-RDMA: runs on the host whatever --location says
  std::string_view label;   // variant_label() stem: "nic-pe", "rdma-tree"
  std::string_view header;  // nicbar_run header: "NIC-PE", "host-RDMA-tree"
  std::string_view noun;    // subject of the row's own refusals; "" for the paper's four
  DimRule dim;
  BarrierSpec spec;  // what the row builds
  // Capabilities:
  bool managed;           // can start a managed group (coll::GroupMember)
  bool fuzzy;             // BarrierMember::run_fuzzy
  bool reductions;        // shares its port with reductions (mpi::Communicator)
  bool closed_form;       // the paper's Eq. 1-2 model applies (--predict)
  bool completes_on_nic;  // every barrier ends in a NIC completion event
  Family fallback;        // host path of a degraded managed group
};

inline constexpr std::array<FamilyRow, 7> kFamilies{{
    {Family::kNicPe, "pe", Location::kNic, false, "nic-pe", "NIC-PE", "", DimRule::kIgnored,
     {.location = Location::kNic, .algorithm = nic::BarrierAlgorithm::kPairwiseExchange},
     true, true, true, true, true, Family::kHostPe},
    {Family::kNicGb, "gb", Location::kNic, false, "nic-gb", "NIC-GB", "", DimRule::kGbDimension,
     {.location = Location::kNic, .algorithm = nic::BarrierAlgorithm::kGatherBroadcast},
     true, true, true, true, true, Family::kHostGb},
    {Family::kHostPe, "pe", Location::kHost, false, "host-pe", "host-PE", "", DimRule::kIgnored,
     {.location = Location::kHost, .algorithm = nic::BarrierAlgorithm::kPairwiseExchange},
     false, false, true, true, false, Family::kHostPe},
    {Family::kHostGb, "gb", Location::kHost, false, "host-gb", "host-GB", "",
     DimRule::kGbDimension,
     {.location = Location::kHost, .algorithm = nic::BarrierAlgorithm::kGatherBroadcast},
     false, false, true, true, false, Family::kHostGb},
    {Family::kHier, "hier", Location::kNic, false, "nic-hier", "NIC-hier", "hierarchical barriers",
     DimRule::kHierIntra, {.hierarchical = true},
     true, false, false, false, true, Family::kHostPe},
    {Family::kHostDissem, "host-dissem", Location::kHost, true, "rdma-dissem", "host-RDMA-dissem",
     "host-RDMA barriers", DimRule::kIgnored, {.rdma = RdmaAlgorithm::kDissemination},
     false, false, false, false, false, Family::kHostDissem},
    {Family::kHostTree, "host-tree", Location::kHost, true, "rdma-tree", "host-RDMA-tree",
     "host-RDMA barriers", DimRule::kTreeRadix, {.rdma = RdmaAlgorithm::kTreePut},
     false, false, false, false, false, Family::kHostTree},
}};

[[nodiscard]] constexpr const FamilyRow& family_row(Family f) {
  return kFamilies[static_cast<std::size_t>(f)];
}
[[nodiscard]] constexpr const DimText& dim_text(DimRule rule) {
  return kDimTexts[static_cast<std::size_t>(rule)];
}

/// `--location` / workload `location` values.
struct LocationName {
  Location location;
  std::string_view name;
};
inline constexpr LocationName kLocationNames[] = {{Location::kNic, "nic"},
                                                  {Location::kHost, "host"}};
[[nodiscard]] constexpr std::string_view location_name(Location loc) {
  return kLocationNames[loc == Location::kNic ? 0 : 1].name;
}

/// The family `spec` selects. Throws std::invalid_argument for the one
/// contradictory selection, hierarchical on the host.
[[nodiscard]] Family family_of(const BarrierSpec& spec);

/// A family and its parameter, as a workload class, a managed group or a
/// command line chooses them.
struct FamilyChoice {
  Family family = Family::kNicPe;
  std::size_t dim = 2;
};

/// The row's spec with `choice.dim` as its parameter; every other field
/// (deadline, group, hier_block) comes from `base`.
[[nodiscard]] BarrierSpec family_spec(FamilyChoice choice, BarrierSpec base = {});

/// The row `name` names at `location`. A name that pairs with one location
/// only (hier) names its row at any location, and family_refusal() explains
/// the mismatch. nullptr for an unknown name.
[[nodiscard]] const FamilyRow* find_family(std::string_view name, Location location);

/// How a caller means to run a family; an empty optional is not checked.
struct FamilyUse {
  std::optional<Location> location = std::nullopt;
  std::optional<std::size_t> dim = std::nullopt;
  bool managed = false;
  bool fuzzy = false;
  bool reductions = false;
};

/// Empty when `family` can run as `use` asks; otherwise the diagnostic
/// without the caller's prefix ("hier needs a positive intra-block
/// dimension"). Allocates only when it refuses.
[[nodiscard]] std::string family_refusal(Family family, const FamilyUse& use);

}  // namespace nicbar::coll
