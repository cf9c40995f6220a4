#include "src/topology/routing.hpp"

#include <algorithm>
#include <deque>

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

// Sorted distinct vc_class table: class-monotone BFS needs it per path,
// so compute_all_routes builds it once for the whole all-pairs table.
// Paths explore each switch's outgoing links through the topology's port
// index (Topology::out_links), in link-insertion order.
std::vector<std::uint8_t> link_classes(const Topology& topo) {
  std::vector<std::uint8_t> classes;
  for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
    classes.push_back(topo.link(l).vc_class);
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  return classes;
}

// BFS over switches; returns the link ids of a shortest path from_sw ->
// to_sw (empty if from_sw == to_sw). Deterministic: links are explored in
// insertion order.
//
// Paths are *class-monotone*: links are traversed in non-decreasing
// vc_class order, the structure the dateline lane discipline needs (torus
// routes go x-then-y, spidergon routes take the cross link first). On a
// topology whose links all share one class — every mesh, ring, star, tree
// and custom topology without annotations — the phase dimension collapses
// and this is byte-for-byte the plain BFS the seed shipped. On annotated
// topologies (make_torus, make_spidergon) class-monotone shortest paths
// have the same length as unconstrained ones: the dimensions of a torus
// displace independently, and a spidergon cross hop commutes with ring
// hops.
std::vector<std::uint32_t> bfs_path(const Topology& topo,
                                    const std::vector<std::uint8_t>& classes,
                                    std::uint32_t from_sw,
                                    std::uint32_t to_sw) {
  const std::size_t n = topo.num_switches();

  // Phase = index of the last-taken link's class in the precomputed
  // distinct-class table. One class (the common case) keeps the state
  // space at n.
  const std::size_t phases = std::max<std::size_t>(classes.size(), 1);
  auto phase_of = [&](std::uint8_t cls) {
    return static_cast<std::size_t>(
        std::lower_bound(classes.begin(), classes.end(), cls) -
        classes.begin());
  };

  auto idx = [&](std::uint32_t sw, std::size_t phase) {
    return sw * phases + phase;
  };
  // -2 unseen, -1 start; otherwise packed (predecessor state, link).
  std::vector<std::int64_t> via(n * phases, -2);
  std::deque<std::pair<std::uint32_t, std::size_t>> queue;
  queue.emplace_back(from_sw, 0);  // phase 0 = lowest class: allows any link
  via[idx(from_sw, 0)] = -1;
  std::int64_t final_state = -1;
  while (!queue.empty()) {
    const auto [s, phase] = queue.front();
    queue.pop_front();
    if (s == to_sw) {
      final_state = static_cast<std::int64_t>(idx(s, phase));
      break;
    }
    for (const std::uint32_t l : topo.out_links(s)) {
      const Link& link = topo.link(l);
      const std::size_t link_phase = phase_of(link.vc_class);
      if (link_phase < phase) continue;  // class order is non-decreasing
      if (via[idx(link.to, link_phase)] == -2) {
        via[idx(link.to, link_phase)] =
            static_cast<std::int64_t>(idx(s, phase)) * 0x100000000ll +
            static_cast<std::int64_t>(l);
        queue.emplace_back(link.to, link_phase);
      }
    }
  }
  require(final_state >= 0,
          "compute_route: destination switch unreachable by a "
          "class-monotone path");
  std::vector<std::uint32_t> path;
  std::int64_t state = final_state;
  while (via[static_cast<std::size_t>(state)] != -1) {
    const std::int64_t packed = via[static_cast<std::size_t>(state)];
    path.push_back(static_cast<std::uint32_t>(packed & 0xFFFFFFFFll));
    state = packed >> 32;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// Dimension-order: full X displacement, then Y. Requires coordinates and
// a grid link in the needed direction at every step.
std::vector<std::uint32_t> xy_path(const Topology& topo,
                                   std::uint32_t from_sw,
                                   std::uint32_t to_sw) {
  std::vector<std::uint32_t> path;
  std::uint32_t cur = from_sw;
  auto step_toward = [&](bool x_dim) {
    const SwitchNode& here = topo.switch_node(cur);
    const SwitchNode& goal = topo.switch_node(to_sw);
    require(here.x >= 0 && here.y >= 0 && goal.x >= 0 && goal.y >= 0,
            "compute_route: XY routing needs grid coordinates");
    const int want = x_dim ? (goal.x > here.x ? 1 : goal.x < here.x ? -1 : 0)
                           : (goal.y > here.y ? 1 : goal.y < here.y ? -1 : 0);
    if (want == 0) return false;
    for (const std::uint32_t l : topo.out_links(cur)) {
      const Link& link = topo.link(l);
      const SwitchNode& next = topo.switch_node(link.to);
      const int dx = next.x - here.x;
      const int dy = next.y - here.y;
      if (x_dim && dx == want && dy == 0) {
        path.push_back(l);
        cur = link.to;
        return true;
      }
      if (!x_dim && dy == want && dx == 0) {
        path.push_back(l);
        cur = link.to;
        return true;
      }
    }
    throw Error("compute_route: grid link missing for XY step");
  };
  while (step_toward(/*x_dim=*/true)) {
  }
  while (step_toward(/*x_dim=*/false)) {
  }
  XPL_ASSERT(cur == to_sw);
  return path;
}

// Up*/down* routing (Autonet): assign each switch a BFS level from switch
// 0; a link is "up" when it goes to a strictly lower (level, id) pair.
// Legal paths take zero or more up links then zero or more down links —
// the channel dependency graph over such paths is acyclic on any
// topology. BFS over (switch, phase) states finds the shortest legal
// path.
std::vector<std::uint32_t> updown_path(const Topology& topo,
                                       std::uint32_t from_sw,
                                       std::uint32_t to_sw) {
  const std::size_t n = topo.num_switches();
  std::vector<std::size_t> level(n, static_cast<std::size_t>(-1));
  {
    std::deque<std::uint32_t> queue{0};
    level[0] = 0;
    while (!queue.empty()) {
      const std::uint32_t s = queue.front();
      queue.pop_front();
      for (const std::uint32_t l : topo.out_links(s)) {
        const Link& link = topo.link(l);
        if (level[link.to] == static_cast<std::size_t>(-1)) {
          level[link.to] = level[s] + 1;
          queue.push_back(link.to);
        }
      }
    }
  }
  auto is_up = [&](const Link& link) {
    return level[link.to] < level[link.from] ||
           (level[link.to] == level[link.from] && link.to < link.from);
  };

  // States: phase 0 = still allowed to go up, phase 1 = down only.
  constexpr std::size_t kPhases = 2;
  std::vector<std::int64_t> via(n * kPhases, -2);  // -2 unseen, -1 start
  auto idx = [&](std::uint32_t sw, std::size_t phase) {
    return sw * kPhases + phase;
  };
  std::deque<std::pair<std::uint32_t, std::size_t>> queue;
  queue.emplace_back(from_sw, 0);
  via[idx(from_sw, 0)] = -1;
  std::int64_t final_state = -1;
  while (!queue.empty()) {
    const auto [s, phase] = queue.front();
    queue.pop_front();
    if (s == to_sw) {
      final_state = static_cast<std::int64_t>(idx(s, phase));
      break;
    }
    for (const std::uint32_t l : topo.out_links(s)) {
      const Link& link = topo.link(l);
      const bool up = is_up(link);
      if (phase == 1 && up) continue;  // no up after down
      const std::size_t next_phase = up ? phase : 1;
      if (via[idx(link.to, next_phase)] == -2) {
        via[idx(link.to, next_phase)] =
            static_cast<std::int64_t>(idx(s, phase)) * 0x100000000ll +
            static_cast<std::int64_t>(l);
        queue.emplace_back(link.to, next_phase);
      }
    }
  }
  require(final_state >= 0, "compute_route: no up*/down* path");
  std::vector<std::uint32_t> path;
  std::int64_t state = final_state;
  while (via[static_cast<std::size_t>(state)] != -1) {
    const std::int64_t packed = via[static_cast<std::size_t>(state)];
    path.push_back(static_cast<std::uint32_t>(packed & 0xFFFFFFFFll));
    state = packed >> 32;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// compute_route with a caller-provided class table, so all-pairs table
// construction builds it once instead of per route.
Route compute_route_indexed(const Topology& topo,
                            const std::vector<std::uint8_t>& classes,
                            std::uint32_t src, std::uint32_t dst,
                            RoutingAlgorithm algorithm) {
  require(src < topo.num_nis() && dst < topo.num_nis(),
          "compute_route: NI id out of range");
  require(src != dst, "compute_route: src and dst NIs are the same");
  const std::uint32_t from_sw = topo.ni(src).switch_id;
  const std::uint32_t to_sw = topo.ni(dst).switch_id;

  std::vector<std::uint32_t> links;
  switch (algorithm) {
    case RoutingAlgorithm::kShortestPath:
      links = bfs_path(topo, classes, from_sw, to_sw);
      break;
    case RoutingAlgorithm::kXY:
      links = xy_path(topo, from_sw, to_sw);
      break;
    case RoutingAlgorithm::kUpDown:
      links = updown_path(topo, from_sw, to_sw);
      break;
  }

  // Translate the link path into per-switch output-port selectors.
  Route route;
  std::uint32_t cur = from_sw;
  for (const std::uint32_t l : links) {
    const std::size_t port =
        topo.output_index(cur, PortRef{PortRef::Kind::kLink, l});
    XPL_ASSERT(port != Topology::npos);
    route.push_back(static_cast<std::uint8_t>(port));
    cur = topo.link(l).to;
  }
  // Final hop: exit the last switch toward the destination NI.
  const std::size_t exit_port =
      topo.output_index(cur, PortRef{PortRef::Kind::kNi, dst});
  XPL_ASSERT(exit_port != Topology::npos);
  route.push_back(static_cast<std::uint8_t>(exit_port));
  return route;
}

}  // namespace

Route compute_route(const Topology& topo, std::uint32_t src,
                    std::uint32_t dst, RoutingAlgorithm algorithm) {
  return compute_route_indexed(topo, link_classes(topo), src, dst,
                               algorithm);
}

const Route& RoutingTables::at(std::uint32_t src, std::uint32_t dst) const {
  const auto it = routes.find({src, dst});
  require(it != routes.end(), "RoutingTables: no route for pair");
  return it->second;
}

std::size_t RoutingTables::max_hops() const {
  std::size_t hops = 0;
  for (const auto& [key, route] : routes) {
    hops = std::max(hops, route.size());
  }
  return hops;
}

RoutingTables compute_all_routes(const Topology& topo,
                                 RoutingAlgorithm algorithm) {
  // One class table and one target list for the whole all-pairs table.
  const std::vector<std::uint8_t> classes = link_classes(topo);
  const std::vector<std::uint32_t> targets = topo.target_ids();
  RoutingTables tables;
  for (const std::uint32_t ini : topo.initiator_ids()) {
    for (const std::uint32_t tgt : targets) {
      tables.routes[{ini, tgt}] =
          compute_route_indexed(topo, classes, ini, tgt, algorithm);
      tables.routes[{tgt, ini}] =
          compute_route_indexed(topo, classes, tgt, ini, algorithm);
    }
  }
  return tables;
}

std::vector<std::uint8_t> dateline_route_vcs(const Topology& topo,
                                             std::uint32_t src,
                                             const Route& route,
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
                                             const Route& route) {
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
