#include "src/ni/lut.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace xpl::ni {

void RouteLut::add_range(const AddressRange& range) {
  require(range.size > 0, "RouteLut: empty address range");
  for (const AddressRange& existing : ranges_) {
    const bool disjoint = range.base + range.size <= existing.base ||
                          existing.base + existing.size <= range.base;
    require(disjoint, "RouteLut: overlapping address ranges");
  }
  ranges_.push_back(range);
}

void RouteViews::set_route(std::uint32_t id, RouteView route) {
  require(!route.empty(), "RouteLut: empty route");
  if (id >= routes_.size()) routes_.resize(id + 1);
  routes_[id] = route;
}

std::size_t RouteViews::num_routes() const {
  return static_cast<std::size_t>(
      std::count_if(routes_.begin(), routes_.end(),
                    [](RouteView route) { return !route.empty(); }));
}

std::optional<LutHit> RouteLut::lookup(std::uint64_t addr) const {
  for (const AddressRange& range : ranges_) {
    if (range.contains(addr)) {
      const RouteView route = route_to(range.dst);
      require(!route.empty(), "RouteLut: range maps to routeless target");
      return LutHit{range.dst, addr - range.base, route};
    }
  }
  return std::nullopt;
}

}  // namespace xpl::ni
