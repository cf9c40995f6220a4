// Topology structure, port numbering, generators.
#include "src/topology/topology.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"

namespace xpl::topology {
namespace {

TEST(Topology, BuildSmall) {
  Topology t;
  const auto a = t.add_switch("a");
  const auto b = t.add_switch("b");
  t.add_duplex(a, b);
  const auto ini = t.attach_initiator(a);
  const auto tgt = t.attach_target(b);
  EXPECT_EQ(t.num_switches(), 2u);
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.num_nis(), 2u);
  EXPECT_TRUE(t.ni(ini).initiator);
  EXPECT_FALSE(t.ni(tgt).initiator);
  t.validate();
}

TEST(Topology, PortNumberingLinksBeforeNis) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  const auto c = t.add_switch();
  t.add_duplex(a, b);  // links 0 (a->b), 1 (b->a)
  t.add_duplex(b, c);  // links 2 (b->c), 3 (c->b)
  const auto ni = t.attach_initiator(b);

  const auto outs = t.output_ports(b);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], (PortRef{PortRef::Kind::kLink, 1}));  // b->a
  EXPECT_EQ(outs[1], (PortRef{PortRef::Kind::kLink, 2}));  // b->c
  EXPECT_EQ(outs[2], (PortRef{PortRef::Kind::kNi, ni}));

  const auto ins = t.input_ports(b);
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0], (PortRef{PortRef::Kind::kLink, 0}));  // a->b
  EXPECT_EQ(ins[1], (PortRef{PortRef::Kind::kLink, 3}));  // c->b
  EXPECT_EQ(ins[2], (PortRef{PortRef::Kind::kNi, ni}));
}

TEST(Topology, PortIndexLookup) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  const auto ni = t.attach_target(a);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kNi, ni}), 1u);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kLink, 0}), 0u);
  EXPECT_EQ(t.output_index(a, {PortRef::Kind::kLink, 99}), Topology::npos);
}

TEST(Topology, SelfLoopRejected) {
  Topology t;
  const auto a = t.add_switch();
  EXPECT_THROW(t.add_link(a, a), Error);
}

TEST(Topology, ValidateCatchesDisconnected) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  const auto c = t.add_switch();
  t.add_duplex(a, b);
  t.attach_initiator(a);
  t.attach_target(c);  // c has no links
  EXPECT_THROW(t.validate(), Error);
}

TEST(Topology, InitiatorAndTargetLists) {
  Topology t;
  const auto a = t.add_switch();
  const auto b = t.add_switch();
  t.add_duplex(a, b);
  t.attach_initiator(a);
  t.attach_target(a);
  t.attach_initiator(b);
  t.attach_target(b);
  EXPECT_EQ(t.initiator_ids(), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(t.target_ids(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(Generators, MeshShape) {
  const auto t = make_mesh(3, 4, NiPlan::uniform(12, 1, 1));
  EXPECT_EQ(t.num_switches(), 12u);
  // Grid links: 2*(2*4 + 3*3) = 34 directed.
  EXPECT_EQ(t.num_links(), 34u);
  EXPECT_EQ(t.num_nis(), 24u);
  t.validate();
  // Coordinates for XY routing.
  EXPECT_EQ(t.switch_node(0).x, 0);
  EXPECT_EQ(t.switch_node(0).y, 0);
  EXPECT_EQ(t.switch_node(5).x, 2);
  EXPECT_EQ(t.switch_node(5).y, 1);
}

TEST(Generators, MeshCornerAndCenterRadix) {
  const auto t = make_mesh(3, 3, NiPlan::uniform(9, 1, 0));
  // Corner: 2 links + 1 NI = 3; center: 4 links + 1 NI = 5.
  EXPECT_EQ(t.output_ports(0).size(), 3u);
  EXPECT_EQ(t.output_ports(4).size(), 5u);
  EXPECT_EQ(t.max_radix_out(), 5u);
}

TEST(Generators, CmeshConcentratesNis) {
  const auto t = make_cmesh(4, 2, 4);
  EXPECT_EQ(t.num_switches(), 8u);
  // Same grid links as a 4x2 mesh: 2*(3*2 + 4*1) = 20 directed.
  EXPECT_EQ(t.num_links(), 20u);
  // Concentration 4: 4 initiator + 4 target NIs per switch.
  EXPECT_EQ(t.num_nis(), 64u);
  t.validate();
  // Coordinates survive for XY routing.
  EXPECT_EQ(t.switch_node(5).x, 1);
  EXPECT_EQ(t.switch_node(5).y, 1);
  // Default one relay stage per grid link (fat tiles; also what makes
  // partitioned simulation run 2-cycle lookahead epochs).
  for (std::uint32_t l = 0; l < t.num_links(); ++l) {
    EXPECT_EQ(t.link(l).stages, 1u);
  }
  EXPECT_THROW(make_cmesh(4, 2, 0), Error);
}

TEST(Generators, TorusAddsWrapLinks) {
  const auto t = make_torus(3, 3, NiPlan::uniform(9, 1, 0));
  EXPECT_EQ(t.num_switches(), 9u);
  // Every switch has degree 4 in a torus: 9*4 = 36 directed links.
  EXPECT_EQ(t.num_links(), 36u);
  t.validate();
}

TEST(Generators, Ring) {
  const auto t = make_ring(5, NiPlan::uniform(5, 1, 1));
  EXPECT_EQ(t.num_switches(), 5u);
  EXPECT_EQ(t.num_links(), 10u);
  t.validate();
}

TEST(Generators, StarHubRadix) {
  const auto t = make_star(4, NiPlan::uniform(5, 1, 0));
  EXPECT_EQ(t.num_switches(), 5u);
  // Hub: 4 links out + 1 NI.
  EXPECT_EQ(t.output_ports(0).size(), 5u);
  t.validate();
}

TEST(Generators, Spidergon) {
  const auto t = make_spidergon(6, NiPlan::uniform(6, 1, 0));
  EXPECT_EQ(t.num_switches(), 6u);
  // Ring 12 + cross 6 directed links.
  EXPECT_EQ(t.num_links(), 18u);
  t.validate();
  EXPECT_THROW(make_spidergon(5, NiPlan::uniform(5, 1, 0)), Error);
}

TEST(Generators, BinaryTree) {
  const auto t = make_binary_tree(3, NiPlan::uniform(7, 1, 0));
  EXPECT_EQ(t.num_switches(), 7u);
  EXPECT_EQ(t.num_links(), 12u);
  t.validate();
}

TEST(Generators, PaperCaseStudyInventory) {
  const auto t = make_paper_case_study();
  EXPECT_EQ(t.num_switches(), 12u);
  // The paper: 8 processors, 11 slaves on a 3x4 mesh.
  EXPECT_EQ(t.initiator_ids().size(), 8u);
  EXPECT_EQ(t.target_ids().size(), 11u);
  t.validate();
  // The two switch shapes the paper reports: 4x4 and 6x4.
  std::size_t max_in = t.max_radix_in();
  std::size_t max_out = t.max_radix_out();
  EXPECT_EQ(max_in, 6u);
  EXPECT_EQ(max_out, 6u);
}

// ---- Port index vs a brute-force reference.

// The documented port numbering, by scanning the whole link and NI
// tables: links in id order, then attached NIs in id order.
std::vector<PortRef> reference_ports(const Topology& t, std::uint32_t s,
                                     bool inputs) {
  std::vector<PortRef> ports;
  for (std::uint32_t l = 0; l < t.num_links(); ++l) {
    if ((inputs ? t.link(l).to : t.link(l).from) == s) {
      ports.push_back(PortRef{PortRef::Kind::kLink, l});
    }
  }
  for (std::uint32_t n = 0; n < t.num_nis(); ++n) {
    if (t.ni(n).switch_id == s) {
      ports.push_back(PortRef{PortRef::Kind::kNi, n});
    }
  }
  return ports;
}

std::size_t reference_index(const std::vector<PortRef>& ports,
                            const PortRef& ref) {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i] == ref) return i;
  }
  return Topology::npos;
}

// Every port query on every switch, for every ref in the topology (and
// one past the end of each id space), against the reference scan. A ref
// that belongs to another switch must give npos.
void expect_index_matches_reference(const Topology& t) {
  std::vector<PortRef> refs;
  for (std::uint32_t l = 0; l <= t.num_links(); ++l) {
    refs.push_back(PortRef{PortRef::Kind::kLink, l});
  }
  for (std::uint32_t n = 0; n <= t.num_nis(); ++n) {
    refs.push_back(PortRef{PortRef::Kind::kNi, n});
  }
  std::size_t max_in = 0;
  std::size_t max_out = 0;
  for (std::uint32_t s = 0; s < t.num_switches(); ++s) {
    SCOPED_TRACE("switch " + std::to_string(s));
    const auto ins = reference_ports(t, s, /*inputs=*/true);
    const auto outs = reference_ports(t, s, /*inputs=*/false);
    max_in = std::max(max_in, ins.size());
    max_out = std::max(max_out, outs.size());
    EXPECT_EQ(t.input_ports(s), ins);
    EXPECT_EQ(t.output_ports(s), outs);
    ASSERT_EQ(t.num_inputs(s), ins.size());
    ASSERT_EQ(t.num_outputs(s), outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      EXPECT_EQ(t.output_port(s, i), outs[i]);
    }
    EXPECT_THROW(t.output_port(s, outs.size()), Error);
    for (const PortRef& ref : refs) {
      EXPECT_EQ(t.input_index(s, ref), reference_index(ins, ref));
      EXPECT_EQ(t.output_index(s, ref), reference_index(outs, ref));
    }
  }
  EXPECT_EQ(t.max_radix_in(), max_in);
  EXPECT_EQ(t.max_radix_out(), max_out);
}

TEST(PortIndex, MatchesReferenceOnEveryGenerator) {
  const std::vector<std::pair<const char*, Topology>> cases = {
      {"mesh", make_mesh(3, 4, NiPlan::uniform(12, 1, 1))},
      {"mesh_sparse_nis",
       make_mesh(3, 3, NiPlan{{2, 0, 1, 0, 0, 1, 0, 1, 0},
                              {0, 1, 3, 0, 1, 0, 0, 0, 2}})},
      {"cmesh", make_cmesh(3, 2, 2)},
      {"torus", make_torus(3, 3, NiPlan::uniform(9, 1, 1))},
      {"ring", make_ring(5, NiPlan::uniform(5, 1, 1))},
      {"star", make_star(4, NiPlan::uniform(5, 1, 1))},
      {"spidergon", make_spidergon(6, NiPlan::uniform(6, 1, 1))},
      {"binary_tree", make_binary_tree(3, NiPlan::uniform(7, 1, 1))},
      {"paper_case_study", make_paper_case_study()},
  };
  for (const auto& [name, topo] : cases) {
    SCOPED_TRACE(name);
    topo.validate();
    expect_index_matches_reference(topo);
  }
}

TEST(PortIndex, NisAttachedBetweenLinksKeepLinksFirst) {
  // NIs attached before, between and after a switch's links, and a
  // switch added after NI ids were handed out: every list still numbers
  // links (by id) before NIs (by id).
  Topology t;
  const auto a = t.add_switch("a");
  const auto b = t.add_switch("b");
  const auto i0 = t.attach_initiator(b);
  t.add_link(a, b);  // 0
  const auto t1 = t.attach_target(a);
  t.add_link(b, a);  // 1
  const auto c = t.add_switch("c");
  const auto i2 = t.attach_initiator(a);
  t.add_duplex(b, c);  // 2 (b->c), 3 (c->b)
  const auto t3 = t.attach_target(c);
  t.add_link(a, c);  // 4
  t.add_link(c, a);  // 5
  t.validate();
  expect_index_matches_reference(t);

  const auto outs = t.output_ports(a);
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0], (PortRef{PortRef::Kind::kLink, 0}));
  EXPECT_EQ(outs[1], (PortRef{PortRef::Kind::kLink, 4}));
  EXPECT_EQ(outs[2], (PortRef{PortRef::Kind::kNi, t1}));
  EXPECT_EQ(outs[3], (PortRef{PortRef::Kind::kNi, i2}));
  EXPECT_EQ(t.output_index(b, {PortRef::Kind::kNi, i0}), 2u);
  EXPECT_EQ(t.input_index(c, {PortRef::Kind::kNi, t3}), 2u);
  EXPECT_EQ(t.output_index(c, {PortRef::Kind::kNi, i0}), Topology::npos);
  EXPECT_EQ(t.out_links(a), (std::vector<std::uint32_t>{0, 4}));
}

std::string validate_error(const Topology& t) {
  try {
    t.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(PortIndex, ValidateKeepsErrorTexts) {
  Topology unused;
  const auto a = unused.add_switch("a");
  const auto b = unused.add_switch("b");
  unused.add_switch("c");  // nothing attached: no ports at all
  unused.add_duplex(a, b);
  unused.attach_initiator(a);
  EXPECT_EQ(validate_error(unused), "Topology: switch c has unused ports");

  Topology one_way;  // a -> b -> c, nothing back
  const auto x = one_way.add_switch("x");
  const auto y = one_way.add_switch("y");
  const auto z = one_way.add_switch("z");
  one_way.add_link(x, y);
  one_way.add_link(y, z);
  one_way.add_link(z, y);
  for (const auto s : {x, y, z}) one_way.attach_target(s);
  EXPECT_EQ(validate_error(one_way), "Topology: switch x unreachable from y");

  Topology empty;
  EXPECT_EQ(validate_error(empty), "Topology: no switches");
  empty.add_switch();
  EXPECT_EQ(validate_error(empty), "Topology: no network interfaces");
}

TEST(PortIndex, LinkStagesAdjustableAfterConstruction) {
  auto t = make_mesh(2, 2, NiPlan::uniform(4, 1, 1));
  const auto before = t.output_ports(0);
  t.set_link_stages(0, 3);
  EXPECT_EQ(t.link(0).stages, 3u);
  EXPECT_EQ(t.output_ports(0), before);
  EXPECT_THROW(t.set_link_stages(99, 1), Error);
}

TEST(Generators, DegenerateDimensionsRejected) {
  EXPECT_THROW(make_mesh(0, 3, NiPlan{}), Error);
  EXPECT_THROW(make_ring(2, NiPlan{}), Error);
  EXPECT_THROW(make_torus(2, 3, NiPlan{}), Error);
}

}  // namespace
}  // namespace xpl::topology
