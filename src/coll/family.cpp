#include "coll/family.hpp"

#include <stdexcept>

namespace nicbar::coll {

Family family_of(const BarrierSpec& spec) {
  if (spec.rdma != RdmaAlgorithm::kNone) {
    return spec.rdma == RdmaAlgorithm::kDissemination ? Family::kHostDissem : Family::kHostTree;
  }
  if (spec.hierarchical) {
    if (spec.location != Location::kNic) {
      throw std::invalid_argument(family_refusal(Family::kHier, {.location = spec.location}));
    }
    return Family::kHier;
  }
  const bool pe = spec.algorithm == nic::BarrierAlgorithm::kPairwiseExchange;
  if (spec.location == Location::kNic) return pe ? Family::kNicPe : Family::kNicGb;
  return pe ? Family::kHostPe : Family::kHostGb;
}

BarrierSpec family_spec(FamilyChoice choice, BarrierSpec base) {
  const BarrierSpec& row = family_row(choice.family).spec;
  base.location = row.location;
  base.algorithm = row.algorithm;
  base.rdma = row.rdma;
  base.hierarchical = row.hierarchical;
  base.gb_dimension = choice.dim;
  return base;
}

const FamilyRow* find_family(std::string_view name, Location location) {
  const FamilyRow* named = nullptr;
  for (const FamilyRow& row : kFamilies) {
    if (row.name != name) continue;
    if (row.any_location || row.location == location) return &row;
    if (named == nullptr) named = &row;
  }
  return named;
}

std::string family_refusal(Family family, const FamilyUse& use) {
  const FamilyRow& row = family_row(family);
  // Built only on a refusal: the rows' nouns outgrow the small-string buffer.
  auto subject = [&row](std::string_view tail) { return std::string(row.noun).append(tail); };
  if (use.location && !row.any_location && *use.location != row.location) {
    // find_family() resolves pe and gb by location, so only hier can differ.
    return subject(" require the NIC-based location");
  }
  if (use.dim == std::size_t{0} && row.dim != DimRule::kIgnored) {
    return std::string(dim_text(row.dim).zero);
  }
  if ((use.fuzzy && !row.fuzzy) || (use.reductions && !row.reductions)) {
    if (!row.noun.empty()) return subject(" require a pure-barrier mix");
    return "fuzzy barriers require the NIC-based location";
  }
  if (use.managed && !row.managed) {
    if (!row.noun.empty()) return subject(" cannot use a managed lifecycle");
    return "lifecycle managed requires the NIC location (the host path is the group's "
           "fallback mode, not a starting mode)";
  }
  return {};
}

}  // namespace nicbar::coll
