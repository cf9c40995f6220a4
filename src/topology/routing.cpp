#include "src/topology/routing.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <numeric>

namespace xpl::topology {

const char* routing_name(RoutingAlgorithm algorithm) {
  switch (algorithm) {
    case RoutingAlgorithm::kShortestPath:
      return "shortest-path";
    case RoutingAlgorithm::kXY:
      return "xy";
    case RoutingAlgorithm::kUpDown:
      return "up-down";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
constexpr std::uint8_t kNoPhase = 0xFF;  ///< a link no path may take

bool on_grid(const SwitchNode& node) { return node.x >= 0 && node.y >= 0; }

// Appends routes to a flat port array. Every algorithm is the one BFS
// under its own link phases; the search tree of the last source switch
// stays in scratch buffers reused by every tree.
class RouteBuilder {
 public:
  RouteBuilder(const Topology& topo, RoutingAlgorithm algorithm)
      : topo_(topo), algorithm_(algorithm), first_(topo.num_switches()) {
    if (algorithm == RoutingAlgorithm::kShortestPath) set_class_phases();
    if (algorithm == RoutingAlgorithm::kXY) set_xy_phases();
    if (algorithm == RoutingAlgorithm::kUpDown) set_updown_phases();
  }

  void append_route(std::uint32_t src, std::uint32_t dst,
                    std::vector<std::uint8_t>& out) {
    const std::uint32_t from_sw = topo_.ni(src).switch_id;
    const std::uint32_t to_sw = topo_.ni(dst).switch_id;
    require(algorithm_ != RoutingAlgorithm::kXY ||
                (on_grid(topo_.switch_node(from_sw)) &&
                 on_grid(topo_.switch_node(to_sw))),
            "compute_route: XY routing needs grid coordinates");
    if (from_sw != root_) grow_tree(from_sw);
    append_tree_path(to_sw, out);
    // Final hop: exit the last switch toward the destination NI.
    const std::size_t exit_port =
        topo_.output_index(to_sw, PortRef{PortRef::Kind::kNi, dst});
    XPL_ASSERT(exit_port != Topology::npos);
    out.push_back(static_cast<std::uint8_t>(exit_port));
  }

 private:
  struct State {
    std::uint32_t parent = kNone;  ///< state this one was reached from
    std::uint32_t depth = kNone;   ///< links from the root; kNone = unseen
    std::uint8_t port = 0;         ///< output port taken at the parent
  };

  // Shortest-path phases: the rank of each link's vc_class among the
  // classes in use, so paths are *class-monotone* — links in
  // non-decreasing vc_class order, the structure the dateline lane
  // discipline needs (torus routes go x-then-y, spidergon routes take the
  // cross link first). On a topology whose links all share one class —
  // every mesh, ring, star, tree and custom topology without annotations
  // — there is one phase and this is the plain BFS. On annotated
  // topologies (make_torus, make_spidergon) class-monotone shortest paths
  // have the same length as unconstrained ones: the dimensions of a torus
  // displace independently, and a spidergon cross hop commutes with ring
  // hops.
  void set_class_phases() {
    std::array<std::uint8_t, 256> rank{};
    for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
      rank[topo_.link(l).vc_class] = 1;
    }
    std::size_t classes = 0;  // turn the in-use marks into ranks
    for (std::uint8_t& r : rank) r = r ? classes++ : 0;
    phases_ = std::max<std::size_t>(classes, 1);
    for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
      link_phase_.push_back(rank[topo_.link(l).vc_class]);
    }
  }

  // Dimension-order (XY) phases: unit +-x grid links are phase 0 and
  // unit +-y grid links phase 1, so paths take all X steps, then all Y
  // steps. Any other link (a torus wrap, a link off the grid) is never
  // taken, and the one phase-monotone shortest path left is the
  // dimension-order walk.
  void set_xy_phases() {
    phases_ = 2;
    for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
      const SwitchNode& from = topo_.switch_node(topo_.link(l).from);
      const SwitchNode& to = topo_.switch_node(topo_.link(l).to);
      const int dx = std::abs(to.x - from.x);
      const int dy = std::abs(to.y - from.y);
      std::uint8_t phase = kNoPhase;
      if (on_grid(from) && on_grid(to) && dx + dy == 1) phase = dx ? 0 : 1;
      link_phase_.push_back(phase);
    }
  }

  // Up*/down* phases (Autonet): a switch's level is its BFS distance from
  // switch 0 — the same search with every link in phase 0. A link is
  // "up" when it goes to a strictly lower (level, id) pair; up links are
  // phase 0 and down links phase 1, so legal paths take up links, then
  // down links — the channel dependency graph over such paths is acyclic
  // on any topology.
  void set_updown_phases() {
    link_phase_.assign(topo_.num_links(), 0);
    if (topo_.num_switches() > 0) grow_tree(0);
    auto level = [&](std::uint32_t sw) {
      return first_[sw] == kNone ? kNone : states_[first_[sw]].depth;
    };
    for (std::uint32_t l = 0; l < topo_.num_links(); ++l) {
      const Link& link = topo_.link(l);
      const bool up =
          level(link.to) < level(link.from) ||
          (level(link.to) == level(link.from) && link.to < link.from);
      link_phase_[l] = up ? 0 : 1;
    }
    phases_ = 2;
    root_ = kNone;  // the level tree routes nothing
  }

  // The one BFS: the full tree of phase-monotone paths from `root`, over
  // (switch, phase) states. Links are explored in insertion (= output
  // port) order, and a state keeps the parent it was first reached from.
  void grow_tree(std::uint32_t root) {
    states_.assign(topo_.num_switches() * phases_, State{});
    std::fill(first_.begin(), first_.end(), kNone);
    queue_.clear();
    queue_.reserve(states_.size());
    root_ = root;
    const auto root_state = static_cast<std::uint32_t>(root * phases_);
    states_[root_state].depth = 0;  // phase 0 is lowest: allows any link
    first_[root] = root_state;
    queue_.push_back(root_state);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t s = queue_[head];
      const std::size_t phase = s % phases_;
      const std::vector<std::uint32_t>& links =
          topo_.out_links(static_cast<std::uint32_t>(s / phases_));
      for (std::size_t port = 0; port < links.size(); ++port) {
        const std::uint8_t link_phase = link_phase_[links[port]];
        // Phases never decrease, and kNoPhase links are never taken.
        if (link_phase < phase || link_phase >= phases_) continue;
        const std::uint32_t to = topo_.link(links[port]).to;
        const auto next =
            static_cast<std::uint32_t>(to * phases_ + link_phase);
        if (states_[next].depth != kNone) continue;
        states_[next] = {s, states_[s].depth + 1,
                         static_cast<std::uint8_t>(port)};
        if (first_[to] == kNone) first_[to] = next;
        queue_.push_back(next);
      }
    }
  }

  // The path to `to_sw` ends at the switch's first-reached state: the one
  // a search stopping at `to_sw` pops first, as FIFO order and parents do
  // not depend on where the search stops.
  void append_tree_path(std::uint32_t to_sw,
                        std::vector<std::uint8_t>& out) const {
    const std::uint32_t last = first_[to_sw];
    require(last != kNone,
            algorithm_ == RoutingAlgorithm::kUpDown
                ? "compute_route: no up*/down* path"
            : algorithm_ == RoutingAlgorithm::kXY
                ? "compute_route: grid link missing for XY step"
                : "compute_route: destination switch unreachable by a "
                  "class-monotone path");
    const std::size_t begin = out.size();
    out.resize(begin + states_[last].depth);
    std::size_t hop = out.size();
    for (std::uint32_t s = last; hop > begin; s = states_[s].parent) {
      out[--hop] = states_[s].port;
    }
  }

  const Topology& topo_;
  RoutingAlgorithm algorithm_;
  std::size_t phases_ = 1;
  std::vector<std::uint8_t> link_phase_;  ///< per link
  std::vector<State> states_;             ///< per (switch, phase)
  std::vector<std::uint32_t> first_;      ///< per switch: first state reached
  std::vector<std::uint32_t> queue_;      ///< FIFO of states, never popped
  std::uint32_t root_ = kNone;            ///< root of the current tree
};

}  // namespace

Route compute_route(const Topology& topo, std::uint32_t src,
                    std::uint32_t dst, RoutingAlgorithm algorithm) {
  require(src < topo.num_nis() && dst < topo.num_nis(),
          "compute_route: NI id out of range");
  require(src != dst, "compute_route: src and dst NIs are the same");
  Route route;
  RouteBuilder(topo, algorithm).append_route(src, dst, route);
  return route;
}

RouteView RoutingTables::at(std::uint32_t src, std::uint32_t dst) const {
  require(src < rows_.size() && dst < column_.size() &&
              column_[dst] < rows_[src].count &&
              dst_[rows_[src].first + column_[dst]] == dst,
          "RoutingTables: no route for pair");
  return route(rows_[src].first + column_[dst]);
}

RoutingTables compute_all_routes(const Topology& topo,
                                 RoutingAlgorithm algorithm) {
  const std::vector<std::uint32_t> initiators = topo.initiator_ids();
  const std::vector<std::uint32_t> targets = topo.target_ids();
  RoutingTables tables;
  tables.rows_.resize(topo.num_nis());
  tables.column_.resize(topo.num_nis());
  for (std::uint32_t k = 0; k < initiators.size(); ++k) {
    tables.column_[initiators[k]] = k;
  }
  for (std::uint32_t k = 0; k < targets.size(); ++k) {
    tables.column_[targets[k]] = k;
  }
  const std::size_t pairs = 2 * initiators.size() * targets.size();
  tables.dst_.reserve(pairs);
  tables.offsets_.reserve(pairs + 1);
  tables.offsets_.push_back(0);
  // Rows are laid out by source switch, so each switch's tree is grown
  // once whatever order the NIs were attached in.
  std::vector<std::uint32_t> sources(topo.num_nis());
  std::iota(sources.begin(), sources.end(), 0u);
  std::stable_sort(sources.begin(), sources.end(), [&](auto a, auto b) {
    return topo.ni(a).switch_id < topo.ni(b).switch_id;
  });
  RouteBuilder builder(topo, algorithm);
  for (const std::uint32_t src : sources) {
    const auto& dsts = topo.ni(src).initiator ? targets : initiators;
    tables.rows_[src] = {static_cast<std::uint32_t>(tables.dst_.size()),
                         static_cast<std::uint32_t>(dsts.size())};
    for (const std::uint32_t dst : dsts) {
      const std::size_t begin = tables.ports_.size();
      builder.append_route(src, dst, tables.ports_);
      tables.max_hops_ =
          std::max(tables.max_hops_, tables.ports_.size() - begin);
      tables.dst_.push_back(dst);
      tables.offsets_.push_back(
          static_cast<std::uint32_t>(tables.ports_.size()));
    }
  }
  return tables;
}

std::vector<std::uint8_t> dateline_route_vcs(const Topology& topo,
                                             std::uint32_t src,
                                             RouteView route,
                                             std::size_t vcs) {
  std::vector<std::uint8_t> lanes;
  std::uint32_t cur = topo.ni(src).switch_id;
  std::int64_t prev_link = -1;
  std::uint8_t vc = 0;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    require(route[hop] < topo.num_outputs(cur),
            "dateline_route_vcs: selector out of range");
    const PortRef ref = topo.output_port(cur, route[hop]);
    if (ref.kind == PortRef::Kind::kNi) break;  // ejection keeps the lane
    const Link& link = topo.link(ref.id);
    if (prev_link < 0 ||
        topo.link(static_cast<std::uint32_t>(prev_link)).vc_class !=
            link.vc_class) {
      vc = 0;  // injection or routing-phase change: back to lane 0
    }
    if (link.dateline) ++vc;
    require(vc < vcs, "dateline_route_vcs: route needs lane " +
                          std::to_string(int(vc)) + " but the network has " +
                          std::to_string(vcs) + " lane(s)");
    lanes.push_back(vc);
    prev_link = ref.id;
    cur = link.to;
  }
  return lanes;
}

std::vector<std::uint32_t> route_switch_path(const Topology& topo,
                                             std::uint32_t src,
                                             RouteView route) {
  std::vector<std::uint32_t> path;
  std::uint32_t cur = topo.ni(src).switch_id;
  path.push_back(cur);
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    require(route[hop] < topo.num_outputs(cur),
            "route_switch_path: selector out of range");
    const PortRef ref = topo.output_port(cur, route[hop]);
    if (ref.kind == PortRef::Kind::kNi) {
      require(hop + 1 == route.size(),
              "route_switch_path: route continues past an NI exit");
      break;
    }
    cur = topo.link(ref.id).to;
    path.push_back(cur);
  }
  return path;
}

}  // namespace xpl::topology
