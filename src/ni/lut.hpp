// Route look-up tables programmed into the NIs by the xpipesCompiler.
//
// The paper's packetization step fills the header's route "from MAddr
// after LUT": the initiator NI maps the OCP address to a target NI and a
// precomputed source route. The target NI holds the mirror table mapping
// a source NI id back to the response route. Both tables are static
// configuration — in hardware they synthesize to small ROMs, which the
// synthesis estimator charges accordingly.
//
// A LUT holds views, not copies: each entry is a RouteView into storage
// that must outlive the LUT — the Network's RoutingTables, or a named
// Route in a testbench. Installing a temporary Route does not compile.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/packet/header.hpp"

namespace xpl::ni {

/// One entry of the initiator NI's address decoder.
struct AddressRange {
  std::uint64_t base = 0;   ///< first byte address of the window
  std::uint64_t size = 0;   ///< window length in bytes
  std::uint32_t dst = 0;    ///< target NI id the window maps to

  bool contains(std::uint64_t addr) const {
    return addr >= base && addr - base < size;
  }
};

/// Routes indexed by NI id — the target-side LUT's whole content and
/// the route half of the initiator-side one. A real route ends with its
/// ejection port, so an empty view means "no route".
class RouteViews {
 public:
  void set_route(std::uint32_t id, RouteView route);
  void set_route(std::uint32_t id, Route&& route) = delete;
  /// Route to NI `id`; empty if none is installed.
  RouteView route_to(std::uint32_t id) const {
    return id < routes_.size() ? routes_[id] : RouteView{};
  }
  std::size_t num_routes() const;

 private:
  std::vector<RouteView> routes_;
};

/// Result of an address lookup.
struct LutHit {
  std::uint32_t dst = 0;      ///< target NI id
  std::uint64_t offset = 0;   ///< address offset within the window
  RouteView route;            ///< precomputed source route
};

/// Initiator-side LUT: address ranges plus one route per reachable target.
class RouteLut : public RouteViews {
 public:
  /// Adds an address window; windows must not overlap.
  void add_range(const AddressRange& range);

  /// Decodes `addr`; nullopt means no window matches (the NI reports an
  /// OCP ERR response locally without touching the network).
  std::optional<LutHit> lookup(std::uint64_t addr) const;

  std::size_t num_ranges() const { return ranges_.size(); }

 private:
  std::vector<AddressRange> ranges_;
};

/// Target-side LUT: response route per initiator id.
class ResponseLut : public RouteViews {};

}  // namespace xpl::ni
