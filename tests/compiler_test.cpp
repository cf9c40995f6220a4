// xpipesCompiler: simulation view, synthesis report, SystemC emission.
#include "src/compiler/compiler.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::compiler {
namespace {

NocSpec mesh_spec(std::size_t w = 2, std::size_t h = 2) {
  NocSpec spec;
  spec.name = "testnoc";
  spec.topo = topology::make_mesh(
      w, h, topology::NiPlan::uniform(w * h, 1, 1));
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  return spec;
}

TEST(Compiler, SimulationViewRuns) {
  XpipesCompiler xpipes;
  auto net = xpipes.build_simulation(mesh_spec());
  net->slave(0).poke(0, 0x11);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net->target_base(0);
  txn.burst_len = 1;
  net->master(3).push_transaction(txn);
  net->run_until_quiescent(5000);
  ASSERT_EQ(net->master(3).completed().size(), 1u);
  EXPECT_EQ(net->master(3).completed()[0].data.at(0), 0x11u);
}

TEST(Compiler, ReportCoversEveryInstance) {
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(mesh_spec(), 800.0);
  // 4 switches + 4 initiator NIs + 4 target NIs.
  EXPECT_EQ(report.instances.size(), 12u);
  EXPECT_GT(report.total_area_mm2, 0.0);
  EXPECT_GT(report.total_power_mw, 0.0);
  EXPECT_GT(report.min_fmax_mhz, 0.0);
  double sum = 0;
  for (const auto& inst : report.instances) {
    EXPECT_FALSE(inst.name.empty());
    EXPECT_TRUE(inst.estimate.feasible) << inst.name;
    sum += inst.estimate.area_mm2;
  }
  EXPECT_NEAR(sum, report.total_area_mm2, 1e-9);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(Compiler, ReportSeparatesComponentKinds) {
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(mesh_spec(), 800.0);
  std::size_t switches = 0;
  std::size_t inis = 0;
  std::size_t tgts = 0;
  for (const auto& inst : report.instances) {
    if (inst.kind.find("switch") != std::string::npos) ++switches;
    if (inst.kind == "initiator NI") ++inis;
    if (inst.kind == "target NI") ++tgts;
  }
  EXPECT_EQ(switches, 4u);
  EXPECT_EQ(inis, 4u);
  EXPECT_EQ(tgts, 4u);
}

TEST(Compiler, MeshCaseStudyMatchesPaperInventory) {
  NocSpec spec;
  spec.name = "case_study";
  spec.topo = topology::make_paper_case_study();
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(spec, 800.0);
  EXPECT_EQ(report.instances.size(), 12u + 8u + 11u);
  // The paper: a 3x4 xpipes mesh for 8 processors and 11 slaves occupies
  // ~2.6 mm2. Hold the model to the right neighbourhood.
  EXPECT_GT(report.total_area_mm2, 1.5);
  EXPECT_LT(report.total_area_mm2, 4.0);
}

void expect_same_report(const SynthesisReport& got,
                        const SynthesisReport& want) {
  ASSERT_EQ(got.instances.size(), want.instances.size());
  for (std::size_t i = 0; i < want.instances.size(); ++i) {
    const InstanceEstimate& g = got.instances[i];
    const InstanceEstimate& w = want.instances[i];
    SCOPED_TRACE(w.name);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.netlist.combinational, w.netlist.combinational);
    EXPECT_EQ(g.netlist.flops, w.netlist.flops);
    EXPECT_EQ(g.estimate.area_mm2, w.estimate.area_mm2);
    EXPECT_EQ(g.estimate.power_mw, w.estimate.power_mw);
    EXPECT_EQ(g.estimate.fmax_mhz, w.estimate.fmax_mhz);
    EXPECT_EQ(g.estimate.target_mhz, w.estimate.target_mhz);
    EXPECT_EQ(g.estimate.feasible, w.estimate.feasible);
  }
  EXPECT_EQ(got.total_area_mm2, want.total_area_mm2);
  EXPECT_EQ(got.total_power_mw, want.total_power_mw);
  EXPECT_EQ(got.min_fmax_mhz, want.min_fmax_mhz);
}

// estimate() and emit_systemc() of a built network match the spec
// overloads, before and after the network simulates: one elaboration can
// serve every view (xpipesc relies on it).
TEST(Compiler, ViewsOfBuiltNetworkMatchSpecViews) {
  XpipesCompiler xpipes;
  NocSpec xy = mesh_spec(3, 3);

  NocSpec torus;
  torus.name = "torus";
  torus.topo = topology::make_torus(3, 3, topology::NiPlan::uniform(9, 1, 1));
  torus.net.vcs = 2;  // minimal routing over datelines
  torus.net.flow = link::FlowControl::kCredit;
  torus.net.target_window = 1 << 12;

  NocSpec sized = mesh_spec(3, 3);
  sized.name = "sized";
  xpipes.optimize_buffer_sizes(sized, 2, 8);
  ASSERT_FALSE(sized.net.output_fifo_override.empty());

  for (const NocSpec* spec : {&xy, &torus, &sized}) {
    SCOPED_TRACE(spec->name);
    const SynthesisReport want = xpipes.estimate(*spec, 800.0, 0.2);
    const auto want_files = xpipes.emit_systemc(*spec);
    auto net = xpipes.build_simulation(*spec);
    expect_same_report(xpipes.estimate(*net, 800.0, 0.2), want);
    EXPECT_EQ(xpipes.emit_systemc(*net, spec->name), want_files);

    // Simulate and drain: neither view reads anything that simulation
    // changes.
    traffic::TrafficConfig tcfg;
    tcfg.injection_rate = 0.1;
    traffic::TrafficDriver driver(*net, tcfg);
    driver.run(400);
    net->run_until_quiescent(50000);
    ASSERT_TRUE(net->quiescent());
    ASSERT_GT(driver.injected(), 0u);
    expect_same_report(xpipes.estimate(*net, 800.0, 0.2), want);
    EXPECT_EQ(xpipes.emit_systemc(*net, spec->name), want_files);
  }
  const auto torus_net = xpipes.build_simulation(torus);
  EXPECT_EQ(torus_net->switch_at(0).config().vc_map,
            switchlib::VcMap::kDateline);
}

TEST(Emitter, OneClassPerDistinctConfig) {
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(mesh_spec());
  // 2x2 mesh with 1+1 NIs per switch: all switches are 4x4 (2 links + 2
  // NIs), all initiator NIs identical, all target NIs identical:
  // 3 component classes + routes + top.
  EXPECT_EQ(files.size(), 5u);
  EXPECT_TRUE(files.count("xpipes_switch_4x4_w32.h"));
  EXPECT_TRUE(files.count("xpipes_ni_initiator_w32.h"));
  EXPECT_TRUE(files.count("xpipes_ni_target_w32.h"));
  EXPECT_TRUE(files.count("xpipes_routes.h"));
  EXPECT_TRUE(files.count("testnoc_top.h"));
}

TEST(Emitter, HeterogeneousMeshEmitsAllShapes) {
  NocSpec spec;
  spec.name = "hetero";
  spec.topo = topology::make_paper_case_study();
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(spec);
  // The 3x4 case study produces several switch shapes (4x4, 5x5, 6x6...
  // depending on row), at least two distinct ones.
  std::size_t switch_classes = 0;
  for (const auto& [name, content] : files) {
    if (name.find("xpipes_switch_") == 0) ++switch_classes;
  }
  EXPECT_GE(switch_classes, 2u);
}

TEST(Emitter, SwitchHeaderContainsStructure) {
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(mesh_spec());
  const auto& sw = files.at("xpipes_switch_4x4_w32.h");
  EXPECT_NE(sw.find("SC_MODULE(xpipes_switch_4x4_w32)"), std::string::npos);
  EXPECT_NE(sw.find("sc_in<bool> clock;"), std::string::npos);
  EXPECT_NE(sw.find("flit_in0"), std::string::npos);
  EXPECT_NE(sw.find("flit_in3"), std::string::npos);
  EXPECT_NE(sw.find("flit_out3"), std::string::npos);
  EXPECT_NE(sw.find("retx_buf"), std::string::npos);
  EXPECT_NE(sw.find("output_queue"), std::string::npos);
  EXPECT_NE(sw.find("SC_METHOD(arb_process)"), std::string::npos);
}

TEST(Emitter, RoutesFileCarriesComputedRoutes) {
  XpipesCompiler xpipes;
  const auto spec = mesh_spec();
  const auto files = xpipes.emit_systemc(spec);
  const auto& routes = files.at("xpipes_routes.h");
  auto net = xpipes.build_simulation(spec);
  // Every pair in the routing tables appears as a named array.
  net->routes().for_each([&](std::uint32_t src, std::uint32_t dst,
                              RouteView) {
    const std::string name = "xpipes_route_" + std::to_string(src) + "_" +
                             std::to_string(dst);
    EXPECT_NE(routes.find(name), std::string::npos) << name;
  });
}

TEST(Emitter, TopInstantiatesEverything) {
  XpipesCompiler xpipes;
  const auto spec = mesh_spec();
  const auto files = xpipes.emit_systemc(spec);
  const auto& top = files.at("testnoc_top.h");
  auto net = xpipes.build_simulation(spec);
  for (std::size_t s = 0; s < net->num_switches(); ++s) {
    EXPECT_NE(top.find(net->switch_at(s).name()), std::string::npos);
  }
  for (std::size_t i = 0; i < net->num_initiators(); ++i) {
    EXPECT_NE(top.find(net->initiator_ni(i).name()), std::string::npos);
  }
  // Every link signal bound.
  for (std::uint32_t l = 0; l < spec.topo.num_links(); ++l) {
    EXPECT_NE(top.find("link" + std::to_string(l) + "_flit"),
              std::string::npos);
  }
}

TEST(Emitter, Deterministic) {
  XpipesCompiler xpipes;
  const auto a = xpipes.emit_systemc(mesh_spec());
  const auto b = xpipes.emit_systemc(mesh_spec());
  EXPECT_EQ(a, b);
}

TEST(Emitter, WritesFilesToDisk) {
  XpipesCompiler xpipes;
  const std::string dir = ::testing::TempDir() + "/xpl_emit";
  xpipes.write_systemc(mesh_spec(), dir);
  std::ifstream top(dir + "/testnoc_top.h");
  EXPECT_TRUE(top.good());
}

}  // namespace
}  // namespace xpl::compiler
