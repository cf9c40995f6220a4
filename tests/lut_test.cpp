// NI route look-up tables. The LUTs view their routes, so every route
// installed here is a named Route that outlives its LUT.
#include "src/ni/lut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/error.hpp"

namespace xpl::ni {
namespace {

bool same_route(RouteView view, const Route& want) {
  return std::ranges::equal(view, want);
}

// A LUT takes a route it can view, never a temporary Route, which would
// leave it holding a dangling view.
template <typename Lut>
constexpr bool takes_named_route =
    requires(Lut& lut, const Route& route) { lut.set_route(0u, route); };
template <typename Lut>
constexpr bool takes_temporary_route =
    requires(Lut& lut) { lut.set_route(0u, Route{0}); };
static_assert(takes_named_route<RouteLut> && takes_named_route<ResponseLut>);
static_assert(!takes_temporary_route<RouteLut> &&
              !takes_temporary_route<ResponseLut>);

TEST(RouteLut, LookupHitReturnsOffsetAndRoute) {
  RouteLut lut;
  lut.add_range({0x1000, 0x100, 5});
  const Route route{1, 2, 3};
  lut.set_route(5, route);
  const auto hit = lut.lookup(0x1042);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dst, 5u);
  EXPECT_EQ(hit->offset, 0x42u);
  EXPECT_EQ(hit->route.data(), route.data());  // a view, not a copy
  EXPECT_TRUE(same_route(hit->route, route));
}

TEST(RouteLut, MissReturnsNullopt) {
  RouteLut lut;
  const Route route{1};
  lut.add_range({0x1000, 0x100, 5});
  lut.set_route(5, route);
  EXPECT_FALSE(lut.lookup(0x0FFF).has_value());
  EXPECT_FALSE(lut.lookup(0x1100).has_value());
}

TEST(RouteLut, BoundariesAreInclusiveExclusive) {
  RouteLut lut;
  const Route route{0};
  lut.add_range({0x100, 0x10, 1});
  lut.set_route(1, route);
  EXPECT_TRUE(lut.lookup(0x100).has_value());
  EXPECT_TRUE(lut.lookup(0x10F).has_value());
  EXPECT_FALSE(lut.lookup(0x110).has_value());
}

TEST(RouteLut, OverlappingRangesRejected) {
  RouteLut lut;
  lut.add_range({0x0, 0x100, 0});
  EXPECT_THROW(lut.add_range({0x80, 0x100, 1}), Error);
  EXPECT_THROW(lut.add_range({0x0, 0x10, 2}), Error);
  // Adjacent is fine.
  lut.add_range({0x100, 0x100, 1});
}

TEST(RouteLut, EmptyRangeRejected) {
  RouteLut lut;
  EXPECT_THROW(lut.add_range({0x0, 0, 0}), Error);
}

TEST(RouteLut, RangeWithoutRouteFailsLookup) {
  RouteLut lut;
  lut.add_range({0x0, 0x100, 3});
  EXPECT_THROW(lut.lookup(0x10), Error);
}

TEST(RouteLut, EmptyRouteRejected) {
  const Route empty;
  RouteLut lut;
  EXPECT_THROW(lut.set_route(0, empty), Error);
}

TEST(RouteLut, MultipleWindows) {
  std::vector<Route> routes;
  for (std::uint32_t t = 0; t < 8; ++t) {
    routes.push_back(Route{static_cast<std::uint8_t>(t % 4)});
  }
  RouteLut lut;
  for (std::uint32_t t = 0; t < 8; ++t) {
    lut.add_range({t * 0x1000ull, 0x1000, t});
    lut.set_route(t, routes[t]);
  }
  EXPECT_EQ(lut.num_ranges(), 8u);
  EXPECT_EQ(lut.num_routes(), 8u);
  for (std::uint32_t t = 0; t < 8; ++t) {
    const auto hit = lut.lookup(t * 0x1000ull + 0x123);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->dst, t);
    EXPECT_EQ(hit->offset, 0x123u);
    EXPECT_TRUE(same_route(hit->route, routes[t]));
  }
}

TEST(ResponseLut, RoutesPerSource) {
  const Route to_2{3, 1};
  const Route to_7{0};
  ResponseLut lut;
  lut.set_route(2, to_2);
  lut.set_route(7, to_7);
  EXPECT_TRUE(same_route(lut.route_to(2), to_2));
  EXPECT_TRUE(same_route(lut.route_to(7), to_7));
  EXPECT_TRUE(lut.route_to(3).empty());
  EXPECT_TRUE(lut.route_to(100).empty());
  EXPECT_EQ(lut.num_routes(), 2u);
}

TEST(ResponseLut, RouteOverwrite) {
  const Route first{1};
  const Route second{2, 2};
  ResponseLut lut;
  lut.set_route(1, first);
  lut.set_route(1, second);
  EXPECT_TRUE(same_route(lut.route_to(1), second));
  EXPECT_EQ(lut.num_routes(), 1u);
}

}  // namespace
}  // namespace xpl::ni
