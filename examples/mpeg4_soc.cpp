// MPEG-4 decoder SoC: the full paper flow on a real application.
//
// application core graph -> SunMap-style mapping -> xpipesCompiler ->
// weighted-traffic simulation + synthesis estimate. This is the scenario
// the paper's introduction motivates: a complex, heterogeneous,
// communication-intensive multimedia SoC on a custom NoC.
//
// Build & run:  ./build/examples/mpeg4_soc
#include <cstdio>

#include "src/appgraph/mapping.hpp"
#include "src/compiler/compiler.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

int main() {
  using namespace xpl;

  // ---- The application.
  const auto graph = appgraph::mpeg4_decoder();
  std::printf("application '%s': %zu cores, %zu flows, %.0f MB/s total\n",
              graph.name().c_str(), graph.num_cores(),
              graph.flows().size(), graph.total_bandwidth());

  // ---- Map onto a 4x3 mesh, one core per switch.
  const auto base =
      topology::make_mesh(4, 3, topology::NiPlan::uniform(12, 0, 0));
  Rng rng(2024);
  auto mapping = appgraph::greedy_map(graph, base, 1);
  const auto dist = appgraph::switch_distances(base);
  const double greedy_cost = appgraph::mapping_cost(graph, dist, mapping);
  mapping = appgraph::anneal_map(graph, base, mapping, rng, 20000, 1);
  const double final_cost = appgraph::mapping_cost(graph, dist, mapping);
  std::printf("mapping cost (bandwidth x hops): greedy %.0f -> annealed "
              "%.0f\n",
              greedy_cost, final_cost);
  for (std::uint32_t c = 0; c < graph.num_cores(); ++c) {
    std::printf("  %-8s -> switch %u\n", graph.core_name(c).c_str(),
                mapping.core_to_switch[c]);
  }

  // ---- Instantiate through the compiler.
  const auto mapped = appgraph::build_mapped_topology(graph, base, mapping);
  compiler::NocSpec spec;
  spec.name = "mpeg4";
  spec.topo = mapped.topo;
  spec.net.flit_width = 32;
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  compiler::XpipesCompiler xpipes;

  // One elaboration: the synthesis estimate reads the network that is
  // simulated below.
  auto net = xpipes.build_simulation(spec);
  const auto report = xpipes.estimate(*net, 900.0);
  std::printf("\nsilicon @900MHz: %.2f mm2, %.0f mW, clock ceiling %.0f "
              "MHz, %zu instances\n",
              report.total_area_mm2, report.total_power_mw,
              report.min_fmax_mhz, report.instances.size());

  // ---- Simulate the application's traffic profile.
  traffic::TrafficConfig tcfg;
  tcfg.pattern = traffic::Pattern::kWeighted;
  tcfg.weights = mapped.weights;
  tcfg.injection_rate = 0.05;
  tcfg.max_burst = 8;
  tcfg.seed = 7;
  traffic::TrafficDriver driver(*net, tcfg);
  const std::size_t cycles = 20000;
  driver.run(cycles);
  net->run_until_quiescent(200000);

  const auto stats = traffic::collect_run(*net, cycles);
  std::printf("\nsimulated %zu cycles of MPEG-4 traffic:\n", cycles);
  std::printf("  transactions: %llu (%.4f per cycle)\n",
              static_cast<unsigned long long>(stats.transactions),
              stats.throughput);
  std::printf("  read latency: mean %.1f / p95 %.0f / max %llu cycles\n",
              stats.latency.mean, stats.latency.p95,
              static_cast<unsigned long long>(stats.latency.max));
  std::printf("  link utilization: %.3f flits/link/cycle\n",
              stats.avg_link_utilization);
  return 0;
}
