// Design-space exploration: the "power of abstraction" argument.
//
// Sweeps the two axes the paper's evaluation sweeps — flit width and
// candidate topology — for the VOPD application, printing a Pareto-style
// table of area / power / clock / latency so an architect can pick a
// design point. Everything comes from the same two views the compiler
// guarantees to agree: the synthesis model and the cycle-accurate
// simulator.
//
// Build & run:  ./build/examples/design_space_exploration
#include <cstdio>

#include "src/appgraph/explore.hpp"
#include "src/compiler/compiler.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

int main() {
  using namespace xpl;
  const auto graph = appgraph::vopd();
  std::printf("application '%s': %zu cores, %zu flows\n\n",
              graph.name().c_str(), graph.num_cores(),
              graph.flows().size());

  // ---- Axis 1: topology candidates at 32-bit flits.
  appgraph::ExploreOptions options;
  options.anneal_iterations = 8000;
  options.sim_cycles = 8000;
  options.target_mhz = 800.0;
  options.net.target_window = 1 << 12;
  const auto candidates = appgraph::default_candidates(graph.num_cores());
  const auto results = explore(graph, candidates, options);

  std::printf("--- topology sweep (32-bit flits, synthesized @800 MHz)\n");
  std::printf("%-14s %-10s %-10s %-10s %-12s\n", "topology", "area_mm2",
              "power_mW", "fmax_MHz", "lat_cycles");
  for (const auto& r : results) {
    std::printf("%-14s %-10.3f %-10.1f %-10.0f %-12.1f\n", r.name.c_str(),
                r.area_mm2, r.power_mw, r.fmax_mhz, r.avg_latency_cycles);
  }

  // ---- Axis 2: flit width on the best mesh.
  std::printf("\n--- flit-width sweep (mesh, 12 cores)\n");
  std::printf("%-10s %-10s %-10s %-12s %-14s\n", "flit", "area_mm2",
              "power_mW", "lat_cycles", "flits/txn");
  const auto base =
      topology::make_mesh(4, 3, topology::NiPlan::uniform(12, 0, 0));
  Rng rng(5);
  auto mapping = appgraph::greedy_map(graph, base, 1);
  mapping = appgraph::anneal_map(graph, base, mapping, rng, 8000, 1);
  const auto mapped = appgraph::build_mapped_topology(graph, base, mapping);

  for (const std::size_t width : {32u, 64u, 128u}) {
    compiler::NocSpec spec;
    spec.name = "vopd";
    spec.topo = mapped.topo;
    spec.net.flit_width = width;
    spec.net.routing = topology::RoutingAlgorithm::kXY;
    spec.net.target_window = 1 << 12;
    compiler::XpipesCompiler xpipes;
    auto net = xpipes.build_simulation(spec);
    const auto report = xpipes.estimate(*net, 800.0);

    traffic::TrafficConfig tcfg;
    tcfg.pattern = traffic::Pattern::kWeighted;
    tcfg.weights = mapped.weights;
    tcfg.injection_rate = 0.04;
    tcfg.seed = 3;
    traffic::TrafficDriver driver(*net, tcfg);
    driver.run(8000);
    net->run_until_quiescent(100000);
    const auto stats = traffic::collect_run(*net, 8000);
    const double flits_per_txn =
        stats.transactions == 0
            ? 0.0
            : static_cast<double>(stats.link_flits) /
                  static_cast<double>(stats.transactions);
    std::printf("%-10zu %-10.3f %-10.1f %-12.1f %-14.1f\n", width,
                report.total_area_mm2, report.total_power_mw,
                stats.latency.mean, flits_per_txn);
  }
  std::printf(
      "\nwider flits buy latency (fewer beats per packet) at a roughly\n"
      "linear area/power cost — the tradeoff the paper's sweeps chart.\n");
  return 0;
}
