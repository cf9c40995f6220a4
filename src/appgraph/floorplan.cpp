#include "src/appgraph/floorplan.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace xpl::appgraph {

double Floorplan::link_length_mm(const topology::Topology& topo,
                                 std::uint32_t link_id) const {
  const auto& link = topo.link(link_id);
  const auto [ax, ay] = position.at(link.from);
  const auto [bx, by] = position.at(link.to);
  const double dx = ax > bx ? double(ax - bx) : double(bx - ax);
  const double dy = ay > by ? double(ay - by) : double(by - ay);
  return (dx + dy) * tile_mm;
}

double Floorplan::total_wire_mm(const topology::Topology& topo) const {
  double total = 0;
  for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
    total += link_length_mm(topo, l);
  }
  return total;
}

namespace {

// Total Manhattan length (tile units) of all links for a placement.
double wire_cost(const topology::Topology& topo,
                 const std::vector<std::pair<std::size_t, std::size_t>>& pos) {
  double cost = 0;
  for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
    const auto& link = topo.link(l);
    const auto [ax, ay] = pos[link.from];
    const auto [bx, by] = pos[link.to];
    cost += std::abs(double(ax) - double(bx)) +
            std::abs(double(ay) - double(by));
  }
  return cost;
}

}  // namespace

Floorplan make_floorplan(const topology::Topology& topo,
                         const FloorplanOptions& options, Rng& rng) {
  const std::size_t n = topo.num_switches();
  require(n >= 1, "make_floorplan: empty topology");

  Floorplan plan;
  plan.tile_mm = options.tile_mm;

  // Mesh-style topologies come with coordinates: place by them.
  bool have_coords = true;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (topo.switch_node(s).x < 0 || topo.switch_node(s).y < 0) {
      have_coords = false;
      break;
    }
  }
  if (have_coords) {
    std::size_t w = 0;
    std::size_t h = 0;
    plan.position.resize(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      const auto& node = topo.switch_node(s);
      plan.position[s] = {static_cast<std::size_t>(node.x),
                          static_cast<std::size_t>(node.y)};
      w = std::max(w, static_cast<std::size_t>(node.x) + 1);
      h = std::max(h, static_cast<std::size_t>(node.y) + 1);
    }
    plan.grid_width = w;
    plan.grid_height = h;
    return plan;
  }

  // Otherwise: anneal on the smallest near-square grid.
  std::size_t w = 1;
  while (w * w < n) ++w;
  const std::size_t h = (n + w - 1) / w;
  plan.grid_width = w;
  plan.grid_height = h;
  plan.position.resize(n);
  // Row-major initial placement.
  for (std::uint32_t s = 0; s < n; ++s) {
    plan.position[s] = {s % w, s / w};
  }

  double cost = wire_cost(topo, plan.position);
  auto best = plan.position;
  double best_cost = cost;
  double temperature = std::max(1.0, cost * 0.1);
  const double cooling = std::pow(
      1e-3, 1.0 / double(std::max<std::size_t>(1, options.anneal_iterations)));

  for (std::size_t it = 0; it < options.anneal_iterations; ++it) {
    // Swap two switches (keeps one-per-tile invariant).
    const auto a = static_cast<std::size_t>(rng.next_below(n));
    const auto b = static_cast<std::size_t>(rng.next_below(n));
    if (a == b) continue;
    std::swap(plan.position[a], plan.position[b]);
    const double next = wire_cost(topo, plan.position);
    const double delta = next - cost;
    if (delta <= 0 || rng.chance(std::exp(-delta / temperature))) {
      cost = next;
      if (cost < best_cost) {
        best_cost = cost;
        best = plan.position;
      }
    } else {
      std::swap(plan.position[a], plan.position[b]);  // revert
    }
    temperature *= cooling;
  }
  plan.position = std::move(best);
  return plan;
}

void apply_link_stages(topology::Topology& topo, const Floorplan& plan,
                       double mm_per_cycle) {
  require(mm_per_cycle > 0, "apply_link_stages: mm_per_cycle must be > 0");
  for (std::uint32_t l = 0; l < topo.num_links(); ++l) {
    const double length = plan.link_length_mm(topo, l);
    const auto cycles = static_cast<std::size_t>(
        std::ceil(length / mm_per_cycle));
    topo.set_link_stages(l, cycles > 0 ? cycles - 1 : 0);
  }
}

}  // namespace xpl::appgraph
