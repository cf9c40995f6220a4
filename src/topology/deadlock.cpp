#include "src/topology/deadlock.hpp"

#include <algorithm>
#include <sstream>

namespace xpl::topology {

VcPolicy make_vc_policy(const Topology& topo, RoutingAlgorithm routing,
                        std::size_t vcs) {
  VcPolicy policy;
  policy.vcs = vcs;
  policy.dateline = vcs > 1 &&
                    routing == RoutingAlgorithm::kShortestPath &&
                    topo.has_datelines();
  return policy;
}

std::string DeadlockReport::to_string(const Topology& topo) const {
  if (deadlock_free) return "deadlock-free";
  std::ostringstream os;
  os << "channel-dependency cycle:";
  for (const Channel& c : cycle) {
    const Link& link = topo.link(c.link);
    os << " " << topo.switch_node(link.from).name << "->"
       << topo.switch_node(link.to).name;
    if (c.vc != 0) os << "@vc" << int(c.vc);
  }
  return os.str();
}

DeadlockReport check_deadlock(const Topology& topo,
                              const RoutingTables& tables,
                              const VcPolicy& policy) {
  require(policy.vcs >= 1, "check_deadlock: vcs must be >= 1");
  // Dependency edges between channel ids (link * vcs + lane): a route
  // traversing l1 on lane v1 and then l2 on lane v2 adds
  // (l1,v1) -> (l2,v2).
  const std::size_t vcs = policy.vcs;
  const std::size_t n = topo.num_links() * vcs;
  std::vector<std::vector<std::uint32_t>> deps(n);
  auto channel = [vcs](std::uint32_t link, std::uint8_t vc) {
    return static_cast<std::uint32_t>(link * vcs + vc);
  };

  tables.for_each([&](std::uint32_t src, std::uint32_t, RouteView route) {
    // Lanes per link hop: the dateline walk, or the initiator-chosen lane
    // held for the whole route. Without the dateline discipline every
    // initial lane is reachable (round-robin assignment), so each route
    // contributes vcs parallel copies of its dependency chain.
    const std::size_t spreads = policy.dateline ? 1 : vcs;
    std::vector<std::uint8_t> lanes;
    if (policy.dateline) {
      lanes = dateline_route_vcs(topo, src, route, vcs);
    }
    for (std::size_t lane0 = 0; lane0 < spreads; ++lane0) {
      std::uint32_t cur = topo.ni(src).switch_id;
      std::int64_t prev_channel = -1;
      std::size_t hop_link = 0;
      for (const std::uint8_t selector : route) {
        require(selector < topo.num_outputs(cur),
                "check_deadlock: bad selector");
        const PortRef ref = topo.output_port(cur, selector);
        if (ref.kind == PortRef::Kind::kNi) break;  // ejection channel
        const std::uint8_t vc =
            policy.dateline ? lanes.at(hop_link)
                            : static_cast<std::uint8_t>(lane0);
        require(vc < vcs, "check_deadlock: lane out of range");
        const std::uint32_t ch = channel(ref.id, vc);
        if (prev_channel >= 0) {
          // A channel has at most radix x lanes distinct successors, and
          // every route through it repeats one: keep each edge once.
          std::vector<std::uint32_t>& d =
              deps[static_cast<std::size_t>(prev_channel)];
          if (std::find(d.begin(), d.end(), ch) == d.end()) d.push_back(ch);
        }
        prev_channel = ch;
        ++hop_link;
        cur = topo.link(ref.id).to;
      }
    }
  });
  for (auto& d : deps) std::sort(d.begin(), d.end());

  // Iterative DFS cycle detection with path recovery.
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::int64_t> parent(n, -1);

  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    // Stack of (node, next-child-index).
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      if (child < deps[node].size()) {
        const std::uint32_t next = deps[node][child++];
        if (color[next] == kGrey) {
          // Found a cycle: walk back from `node` to `next`.
          DeadlockReport report;
          report.deadlock_free = false;
          auto to_channel = [vcs](std::uint32_t id) {
            return Channel{static_cast<std::uint32_t>(id / vcs),
                           static_cast<std::uint8_t>(id % vcs)};
          };
          report.cycle.push_back(to_channel(next));
          for (std::uint32_t s = node; s != next;) {
            report.cycle.push_back(to_channel(s));
            XPL_ASSERT(parent[s] >= 0);
            s = static_cast<std::uint32_t>(parent[s]);
          }
          std::reverse(report.cycle.begin(), report.cycle.end());
          return report;
        }
        if (color[next] == kWhite) {
          color[next] = kGrey;
          parent[next] = node;
          stack.emplace_back(next, 0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
  return DeadlockReport{};
}

}  // namespace xpl::topology
