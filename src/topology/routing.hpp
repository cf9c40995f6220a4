// Source-route computation — the routing-function half of the paper's
// "topology selection / routing function co-design" step.
//
// xpipes lite switches are source-routed: the whole path is decided at the
// initiator and carried in the header. The compiler computes one Route per
// (source NI, destination NI) pair with one of three algorithms:
//
//  * kShortestPath — BFS over the link graph with deterministic tie
//    breaking (insertion order), valid for any topology;
//  * kXY — dimension-order routing, defined only for switches with grid
//    coordinates (make_mesh/make_torus); provably deadlock-free on meshes;
//  * kUpDown — up*/down* routing over a BFS spanning order (Autonet):
//    shortest path that never takes an up link after a down link;
//    deadlock-free on any topology, used for rings/stars/spidergons.
//
// Each Route entry is the *output port index* to take at the successive
// switches of the path, ending with the port that exits to the
// destination NI (topology.hpp's port numbering).
//
// Both BFS algorithms are one search over (switch, phase) states with a
// per-link phase: a path may only take links whose phase is >= the phase
// it is in. Shortest-path phases are the rank of the link's vc_class;
// up*/down* phases are 0 for up links and 1 for down links. The search
// runs to completion once per source switch, and that one tree answers
// every destination (DESIGN.md §3, "One route store").
#pragma once

#include <cstdint>
#include <vector>

#include "src/packet/header.hpp"
#include "src/topology/topology.hpp"

namespace xpl::topology {

enum class RoutingAlgorithm : std::uint8_t { kShortestPath, kXY, kUpDown };

const char* routing_name(RoutingAlgorithm algorithm);

/// Computes the source route from NI `src` to NI `dst`. Throws xpl::Error
/// if no path exists or kXY is requested without grid coordinates.
Route compute_route(const Topology& topo, std::uint32_t src,
                    std::uint32_t dst, RoutingAlgorithm algorithm);

/// All-pairs routes the compiler programs into the NI LUTs: initiator ->
/// every target (request routes) and target -> every initiator (response
/// routes), in one flat store. Each source NI owns a row with one pair per
/// NI of the other kind, in ascending id order; rows are laid out by
/// source switch, and pair i's route is ports_[offsets_[i],
/// offsets_[i + 1]). The NI LUTs view these routes in place.
class RoutingTables {
 public:
  /// Route from NI `src` to NI `dst`. Throws xpl::Error if the table has
  /// no such pair (ids out of range, or both NIs of the same kind).
  RouteView at(std::uint32_t src, std::uint32_t dst) const;

  /// Longest route in the table, in hops (switch traversals).
  std::size_t max_hops() const { return max_hops_; }

  /// Number of (src, dst) pairs.
  std::size_t size() const { return dst_.size(); }

  /// Calls fn(src, dst, route) for every pair in ascending (src, dst)
  /// order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t src = 0; src < rows_.size(); ++src) {
      const Row& row = rows_[src];
      for (std::uint32_t i = row.first; i < row.first + row.count; ++i) {
        fn(src, dst_[i], route(i));
      }
    }
  }

 private:
  friend RoutingTables compute_all_routes(const Topology& topo,
                                          RoutingAlgorithm algorithm);

  struct Row {
    std::uint32_t first = 0;  ///< index of the row's first pair
    std::uint32_t count = 0;  ///< pairs in the row
  };

  RouteView route(std::size_t pair) const {
    return RouteView(ports_.data() + offsets_[pair],
                     offsets_[pair + 1] - offsets_[pair]);
  }

  std::vector<Row> rows_;                ///< per source NI
  std::vector<std::uint32_t> column_;    ///< per NI: rank within its kind
  std::vector<std::uint32_t> dst_;       ///< per pair: destination NI
  std::vector<std::uint32_t> offsets_;   ///< per pair, plus an end sentinel
  std::vector<std::uint8_t> ports_;      ///< every route's selectors
  std::size_t max_hops_ = 0;
};

RoutingTables compute_all_routes(const Topology& topo,
                                 RoutingAlgorithm algorithm);

/// Switch sequence visited by a route starting at NI `src` (used by the
/// deadlock checker and tests). Includes the injection switch first.
std::vector<std::uint32_t> route_switch_path(const Topology& topo,
                                             std::uint32_t src,
                                             RouteView route);

/// Lane (virtual channel) of each switch-to-switch link a route traverses
/// under the dateline discipline: a packet starts on lane 0, resets to
/// lane 0 whenever the link vc_class changes, and bumps one lane when it
/// crosses a dateline link. This is the exact rule every switch applies
/// locally (switchlib::SwitchConfig::VcMap::kDateline), so the deadlock
/// checker can analyse the channels the hardware will actually use. The
/// returned vector parallels the route's link hops (the final ejection
/// hop, which exits to an NI, is excluded). Throws xpl::Error if any hop
/// needs a lane >= vcs.
std::vector<std::uint8_t> dateline_route_vcs(const Topology& topo,
                                             std::uint32_t src,
                                             RouteView route,
                                             std::size_t vcs);

}  // namespace xpl::topology
