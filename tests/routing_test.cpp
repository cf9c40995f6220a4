// Source-route computation: validity, shortest paths, XY discipline,
// up*/down* legality, and the all-pairs table's allocation bound. The
// table's bytes are pinned by RoutesGolden in golden_test.
#include "src/topology/routing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"

// Global allocation counter: every operator new bumps g_allocs, so a test
// can count what one call allocates.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's buffer comes from the nothrow form; it must pair with
// the free() below too.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
// std::free is the matched deallocator for the malloc above; GCC's
// -Wmismatched-new-delete cannot see that through a replaced operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace xpl::topology {
namespace {

// Walks `route` from NI `src` and returns the NI it ejects at, or throws.
std::uint32_t walk_route(const Topology& topo, std::uint32_t src,
                         RouteView route) {
  std::uint32_t cur = topo.ni(src).switch_id;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const auto ports = topo.output_ports(cur);
    require(route[hop] < ports.size(), "selector out of range");
    const PortRef& ref = ports[route[hop]];
    if (ref.kind == PortRef::Kind::kNi) {
      require(hop + 1 == route.size(), "route continues past ejection");
      return ref.id;
    }
    cur = topo.link(ref.id).to;
  }
  throw Error("route never ejects");
}

TEST(Routing, RouteEndsAtDestination) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  for (const auto algo :
       {RoutingAlgorithm::kShortestPath, RoutingAlgorithm::kXY,
        RoutingAlgorithm::kUpDown}) {
    for (const auto src : t.initiator_ids()) {
      for (const auto dst : t.target_ids()) {
        const Route route = compute_route(t, src, dst, algo);
        EXPECT_EQ(walk_route(t, src, route), dst)
            << routing_name(algo) << " " << src << "->" << dst;
      }
    }
  }
}

TEST(Routing, SameSwitchPairIsOneHop) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  const auto ini = t.attach_initiator(a);
  const auto tgt = t.attach_target(a);
  const Route route =
      compute_route(t, ini, tgt, RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(route.size(), 1u);  // just the ejection port
  EXPECT_EQ(walk_route(t, ini, route), tgt);
}

TEST(Routing, ShortestPathHopCountOnMesh) {
  const auto t = make_mesh(4, 4, NiPlan::uniform(16, 1, 1));
  // NI ids: switch s hosts initiator 2s and target 2s+1.
  // Corner (0,0) to corner (3,3): manhattan 6 + ejection = 7 selectors.
  const auto inis = t.initiator_ids();
  const auto tgts = t.target_ids();
  const Route route = compute_route(t, inis.front(), tgts.back(),
                                    RoutingAlgorithm::kShortestPath);
  EXPECT_EQ(route.size(), 7u);
  const Route xy =
      compute_route(t, inis.front(), tgts.back(), RoutingAlgorithm::kXY);
  EXPECT_EQ(xy.size(), 7u);
}

TEST(Routing, XyGoesXFirst) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 1));
  // From switch (0,0) to (2,2): XY visits (1,0),(2,0),(2,1),(2,2).
  const auto src = t.initiator_ids()[0];  // on switch 0 = (0,0)
  const auto dst = t.target_ids()[8];     // on switch 8 = (2,2)
  const Route route = compute_route(t, src, dst, RoutingAlgorithm::kXY);
  const auto path = route_switch_path(t, src, route);
  const std::vector<std::uint32_t> expected{0, 1, 2, 5, 8};
  EXPECT_EQ(path, expected);
}

TEST(Routing, XyRequiresCoordinates) {
  const auto t = make_ring(4, NiPlan::uniform(4, 1, 1));
  EXPECT_THROW(
      compute_route(t, t.initiator_ids()[0], t.target_ids()[2],
                    RoutingAlgorithm::kXY),
      Error);
}

TEST(Routing, UpDownNeverTakesUpAfterDown) {
  const auto t = make_spidergon(8, NiPlan::uniform(8, 1, 1));
  // Reconstruct levels like the router does.
  const auto dist_from_0 = [&t] {
    std::vector<std::size_t> level(t.num_switches(), SIZE_MAX);
    level[0] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t l = 0; l < t.num_links(); ++l) {
        const auto& link = t.link(l);
        if (level[link.from] != SIZE_MAX &&
            level[link.from] + 1 < level[link.to]) {
          level[link.to] = level[link.from] + 1;
          changed = true;
        }
      }
    }
    return level;
  }();
  auto is_up = [&](std::uint32_t from, std::uint32_t to) {
    return dist_from_0[to] < dist_from_0[from] ||
           (dist_from_0[to] == dist_from_0[from] && to < from);
  };
  for (const auto src : t.initiator_ids()) {
    for (const auto dst : t.target_ids()) {
      const Route route =
          compute_route(t, src, dst, RoutingAlgorithm::kUpDown);
      const auto path = route_switch_path(t, src, route);
      bool gone_down = false;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const bool up = is_up(path[i], path[i + 1]);
        if (gone_down) {
          EXPECT_FALSE(up) << "up after down " << src << "->" << dst;
        }
        if (!up) gone_down = true;
      }
      EXPECT_EQ(walk_route(t, src, route), dst);
    }
  }
}

TEST(Routing, AllRoutesTablesComplete) {
  const auto t = make_mesh(2, 3, NiPlan::uniform(6, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  const auto inis = t.initiator_ids();
  const auto tgts = t.target_ids();
  EXPECT_EQ(tables.size(), 2 * inis.size() * tgts.size());
  for (const auto i : inis) {
    for (const auto g : tgts) {
      EXPECT_EQ(walk_route(t, i, tables.at(i, g)), g);
      EXPECT_EQ(walk_route(t, g, tables.at(g, i)), i);
    }
  }
}

TEST(Routing, MaxHopsMatchesDiameter) {
  const auto t = make_mesh(4, 4, NiPlan::uniform(16, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  EXPECT_EQ(tables.max_hops(), 7u);  // manhattan 6 + ejection
}

TEST(Routing, RejectsSameNi) {
  const auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  EXPECT_THROW(
      compute_route(t, 0, 0, RoutingAlgorithm::kShortestPath), Error);
}

// Route validity across topologies and algorithms.
struct SweepCase {
  const char* name;
  Topology topo;
  RoutingAlgorithm algorithm;
};

class RoutingSweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<SweepCase> cases() {
    std::vector<SweepCase> out;
    out.push_back({"mesh_xy", make_mesh(3, 4, NiPlan::uniform(12, 1, 1)),
                   RoutingAlgorithm::kXY});
    out.push_back({"mesh_sp", make_mesh(3, 4, NiPlan::uniform(12, 1, 1)),
                   RoutingAlgorithm::kShortestPath});
    out.push_back({"torus_sp", make_torus(3, 3, NiPlan::uniform(9, 1, 1)),
                   RoutingAlgorithm::kShortestPath});
    out.push_back({"ring_ud", make_ring(6, NiPlan::uniform(6, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"star_ud", make_star(4, NiPlan::uniform(5, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"tree_ud",
                   make_binary_tree(3, NiPlan::uniform(7, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    out.push_back({"spidergon_ud",
                   make_spidergon(8, NiPlan::uniform(8, 1, 1)),
                   RoutingAlgorithm::kUpDown});
    return out;
  }
};

TEST_P(RoutingSweep, EveryPairRoutes) {
  static const auto cases_vec = cases();
  const SweepCase& c = cases_vec[static_cast<std::size_t>(GetParam())];
  for (const auto src : c.topo.initiator_ids()) {
    for (const auto dst : c.topo.target_ids()) {
      const Route route = compute_route(c.topo, src, dst, c.algorithm);
      EXPECT_EQ(walk_route(c.topo, src, route), dst)
          << c.name << " " << src << "->" << dst;
      EXPECT_GE(route.size(), 1u);
    }
  }
}

TEST(Routing, TableRejectsPairsItDoesNotHold) {
  const auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  const auto tables = compute_all_routes(t, RoutingAlgorithm::kXY);
  const auto inis = t.initiator_ids();
  const auto tgts = t.target_ids();
  EXPECT_THROW(tables.at(inis[0], inis[1]), Error);  // same kind
  EXPECT_THROW(tables.at(tgts[0], tgts[1]), Error);
  EXPECT_THROW(tables.at(inis[0], t.num_nis()), Error);
  EXPECT_THROW(RoutingTables{}.at(0, 1), Error);
}

// The table is one flat store grown a constant number of times, however
// many pairs it holds: mesh16 and cmesh8x8c4 each carry 131,072 routes.
TEST(Routing, AllRoutesAllocateFewerTimesThanSwitches) {
  const Topology mesh16 = make_mesh(16, 16, NiPlan::uniform(256, 1, 1));
  const Topology cmesh = make_cmesh(8, 8, 4);
  for (const Topology* topo : {&mesh16, &cmesh}) {
    for (const auto algorithm :
         {RoutingAlgorithm::kShortestPath, RoutingAlgorithm::kXY,
          RoutingAlgorithm::kUpDown}) {
      const std::uint64_t before = g_allocs.load();
      const RoutingTables tables = compute_all_routes(*topo, algorithm);
      const std::uint64_t allocs = g_allocs.load() - before;
      EXPECT_EQ(tables.size(), 131072u);
      EXPECT_LT(allocs, topo->num_switches())
          << topo->num_switches() << " switches, "
          << routing_name(algorithm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutingSweep,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace xpl::topology
