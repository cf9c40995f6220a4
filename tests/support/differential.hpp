// Differential kernel-equivalence harness.
//
// The event-driven scheduler (sim::Scheduler::kTimeLeap) and the
// partitioned kernel are pure optimizations: each must be *bit-exact*
// against the full scheduler — the reference oracle — on every
// observable: per-cycle signal values, end-of-run statistics, campaign
// exports, recorded traces. This header is the proof engine: it builds
// two identically-configured networks, drives them in lockstep with twin
// traffic generators, and compares the kernels' signal digests. A
// divergence is reported with the first divergent cycle and the modules
// whose state differs, and scenarios shrink toward a minimal
// reproduction before reporting.
//
// The time-leap twin is proven at two granularities. Network::step()
// routes through Kernel::run(1), so a per-cycle-driven kTimeLeap
// network still takes the leap decision every cycle — a skipped
// (frozen) cycle is digest-compared against the reference *inside* the
// leapt region, not just at its ends. Chunked driving via
// traffic::TrafficDriver::run() then arms the driver's injector module
// and lets the kernel leap multi-cycle gaps wholesale, compared at the
// cycle counts where the two clocks realign.
//
// Used by tests/kernel_equiv_test.cpp (randomized sweep),
// tests/timeleap_test.cpp (leap corners), tests/partition_test.cpp, the
// fuzz suite, and the wake-hazard regression tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/link/flow.hpp"
#include "src/noc/network.hpp"
#include "src/sim/kernel.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"

namespace xpl::testsupport {

/// One randomized equivalence trial: everything needed to construct two
/// identical networks and their traffic, minus the scheduler choice.
struct DiffScenario {
  /// mesh | torus | ring | star | spidergon | cmesh
  std::string topology = "mesh";
  std::size_t width = 2;
  std::size_t height = 2;
  std::size_t concentration = 2;  ///< cmesh only: NIs per switch
  std::size_t vcs = 1;
  link::FlowControl flow = link::FlowControl::kAckNack;
  double bit_error_rate = 0.0;
  topology::RoutingAlgorithm routing = topology::RoutingAlgorithm::kXY;
  double injection_rate = 0.05;
  double burstiness = 0.0;
  std::size_t cycles = 400;        ///< driven cycles
  std::size_t drain_cycles = 6000; ///< extra lockstep cycles to drain
  std::uint64_t net_seed = 1;
  std::uint64_t traffic_seed = 1;

  topology::Topology build_topology() const {
    if (topology == "cmesh") {
      return topology::make_cmesh(width, height, concentration);
    }
    const std::size_t n = topology == "mesh" || topology == "torus"
                              ? width * height
                              : topology == "star" ? width + 1
                              : topology == "spidergon" ? width + (width % 2)
                                                        : width;
    const auto plan = topology::NiPlan::uniform(n, 1, 1);
    if (topology == "mesh") return topology::make_mesh(width, height, plan);
    if (topology == "torus") return topology::make_torus(width, height, plan);
    if (topology == "ring") return topology::make_ring(width, plan);
    if (topology == "star") return topology::make_star(width, plan);
    return topology::make_spidergon(width + (width % 2), plan);
  }

  noc::NetworkConfig net_config(sim::Scheduler scheduler,
                                std::size_t partitions = 1,
                                std::size_t sim_threads = 1) const {
    noc::NetworkConfig cfg;
    cfg.routing = routing;
    cfg.vcs = vcs;
    cfg.flow = flow;
    cfg.bit_error_rate = bit_error_rate;
    cfg.seed = net_seed;
    cfg.target_window = 1 << 12;
    cfg.scheduler = scheduler;
    cfg.partitions = partitions;
    cfg.sim_threads = sim_threads;
    return cfg;
  }

  traffic::TrafficConfig traffic_config() const {
    traffic::TrafficConfig cfg;
    cfg.injection_rate = injection_rate;
    cfg.burstiness = burstiness;
    cfg.seed = traffic_seed;
    return cfg;
  }

  /// Reproduction recipe, printed on failure.
  std::string to_string() const {
    std::ostringstream os;
    os << topology << " " << width << "x" << height;
    if (topology == "cmesh") os << " c" << concentration;
    os << " vcs=" << vcs
       << " flow=" << link::flow_control_name(flow)
       << " ber=" << bit_error_rate
       << " routing=" << topology::routing_name(routing)
       << " rate=" << injection_rate << " burst=" << burstiness
       << " cycles=" << cycles << " net_seed=" << net_seed
       << " traffic_seed=" << traffic_seed;
    return os.str();
  }
};

/// Outcome of one lockstep comparison.
struct DiffResult {
  bool ok = true;
  /// Cycle whose post-commit digest first differed (or the end-of-run
  /// stats comparison when the per-cycle digests agreed).
  std::uint64_t first_divergent_cycle = 0;
  std::string detail;  ///< human-readable attribution

  explicit operator bool() const { return ok; }
};

namespace detail {

/// Compares a handful of per-module observables and names the first
/// mismatch — digest divergence says *when*, this says *where*. The
/// labels default to the scheduler-equivalence pairing; the partition
/// harness passes "ref"/"part".
inline std::string attribute_divergence(noc::Network& ref,
                                        noc::Network& twin,
                                        const char* label_a = "full",
                                        const char* label_b = "leap") {
  std::ostringstream os;
  for (std::size_t s = 0; s < ref.num_switches(); ++s) {
    const std::string a = ref.switch_at(s).debug_state();
    const std::string b = twin.switch_at(s).debug_state();
    if (a != b) {
      os << "\n  switch " << s << " " << label_a << ":  " << a
         << "\n  switch " << s << " " << label_b << ": " << b;
    }
  }
  for (std::size_t i = 0; i < ref.num_initiators(); ++i) {
    if (ref.master(i).issued_count() != twin.master(i).issued_count() ||
        ref.master(i).completed().size() !=
            twin.master(i).completed().size()) {
      os << "\n  master " << i << ": issued "
         << ref.master(i).issued_count() << "/"
         << twin.master(i).issued_count() << " completed "
         << ref.master(i).completed().size() << "/"
         << twin.master(i).completed().size();
    }
  }
  for (std::size_t t = 0; t < ref.num_targets(); ++t) {
    if (ref.target_ni(t).packets_received() !=
        twin.target_ni(t).packets_received()) {
      os << "\n  target_ni " << t << ": packets_received "
         << ref.target_ni(t).packets_received() << "/"
         << twin.target_ni(t).packets_received();
    }
  }
  os << "\n  awake(" << label_b << ") = " << twin.kernel().awake_count()
     << "/" << twin.kernel().module_count();
  return os.str();
}

/// Drives `ref` and `twin` through `cycles` driven cycles — per cycle
/// via driver.step() + net.step() when `spans` is empty, else in
/// driver.run() spans cycling through `spans` — then drains both in
/// `drain_span` windows. Digests are compared after every cycle or span,
/// quiescence at the end of the drain, then the end-of-run statistics.
inline DiffResult lockstep(noc::Network& ref, noc::Network& twin,
                           traffic::TrafficDriver& ref_driver,
                           traffic::TrafficDriver& twin_driver,
                           std::size_t cycles, std::size_t drain_cycles,
                           const std::vector<std::size_t>& spans,
                           std::size_t drain_span,
                           const std::string& describe, const char* label_a,
                           const char* label_b) {
  DiffResult result;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail = what + "\n  scenario: " + describe +
                    attribute_divergence(ref, twin, label_a, label_b);
    return result;
  };
  auto digests_differ = [&] {
    return ref.kernel().digest() != twin.kernel().digest();
  };

  for (std::size_t done = 0, pick = 0; done < cycles;) {
    if (spans.empty()) {
      ref_driver.step();
      twin_driver.step();
      ref.step();
      twin.step();
      ++done;
    } else {
      const std::size_t n =
          std::min(spans[pick++ % spans.size()], cycles - done);
      ref_driver.run(n);
      twin_driver.run(n);
      done += n;
    }
    if (digests_differ()) {
      return fail("digest divergence at cycle " +
                  std::to_string(ref.kernel().cycle()) + " (driven phase)");
    }
  }
  for (std::size_t c = 0; c < drain_cycles; c += drain_span) {
    if (ref.quiescent() && twin.quiescent()) break;
    const std::size_t n = std::min(drain_span, drain_cycles - c);
    ref.step(n);
    twin.step(n);
    if (digests_differ()) {
      return fail("digest divergence at cycle " +
                  std::to_string(ref.kernel().cycle()) + " (drain phase)");
    }
  }
  if (ref.quiescent() != twin.quiescent()) {
    return fail("drain divergence (" + std::string(label_a) + " " +
                (ref.quiescent() ? "quiescent" : "stuck") + ", " +
                std::string(label_b) + " " +
                (twin.quiescent() ? "quiescent" : "stuck") + ")");
  }

  // Per-cycle digests agreed; the aggregate statistics must too.
  const auto rs = traffic::collect_run(ref, cycles);
  const auto ts = traffic::collect_run(twin, cycles);
  std::ostringstream os;
  auto check = [&os, label_a, label_b](const char* what, auto a, auto b) {
    if (a != b) {
      os << "\n  " << what << ": " << label_a << "=" << a << " " << label_b
         << "=" << b;
    }
  };
  check("transactions", rs.transactions, ts.transactions);
  check("latency.mean", rs.latency.mean, ts.latency.mean);
  check("latency.p95", rs.latency.p95, ts.latency.p95);
  check("throughput", rs.throughput, ts.throughput);
  check("link_flits", rs.link_flits, ts.link_flits);
  check("retransmissions", rs.retransmissions, ts.retransmissions);
  check("credit_stalls", rs.credit_stalls, ts.credit_stalls);
  check("avg_link_utilization", rs.avg_link_utilization,
        ts.avg_link_utilization);
  if (!os.str().empty()) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail = "stats divergence after identical digests (scenario: " +
                    describe + ")" + os.str();
  }
  return result;
}

}  // namespace detail

/// Per-cycle lockstep comparator over caller-built twins: `ref` and
/// `twin` must be identically constructed except for the scheduler, and
/// the drivers identically seeded. Drives both for `cycles`, then
/// drains, comparing the kernels' signal digests after every cycle and
/// the end-of-run statistics at the end. `describe` labels the failure
/// report. Suites with their own topology generators
/// (tests/fuzz_test.cpp) call this directly.
inline DiffResult run_lockstep(noc::Network& ref, noc::Network& twin,
                               traffic::TrafficDriver& ref_driver,
                               traffic::TrafficDriver& twin_driver,
                               std::size_t cycles, std::size_t drain_cycles,
                               const std::string& describe,
                               const char* label_a = "full",
                               const char* label_b = "leap") {
  return detail::lockstep(ref, twin, ref_driver, twin_driver, cycles,
                          drain_cycles, {}, 1, describe, label_a, label_b);
}

/// Lockstep comparator for the partitioned kernel: `ref` is the
/// unpartitioned reference, `part` a partitioned twin (any partition and
/// thread count). Digests are only comparable at epoch boundaries — the
/// partitioned kernel commits a whole conservative window per barrier —
/// so the driven phase advances both networks in chunks of `part`'s
/// lookahead and compares after each chunk; the drain then runs per
/// cycle (a 1-cycle epoch is always legal), exercising quiescence
/// detection at the same granularity run_lockstep uses. Signal creation
/// order is partition-invariant, so equal digests mean byte-identical
/// committed state, not merely "similar".
inline DiffResult run_lockstep_partitioned(
    noc::Network& ref, noc::Network& part,
    traffic::TrafficDriver& ref_driver, traffic::TrafficDriver& part_driver,
    std::size_t cycles, std::size_t drain_cycles,
    const std::string& describe) {
  const std::size_t k =
      std::max<std::size_t>(1, part.kernel().lookahead());
  return detail::lockstep(ref, part, ref_driver, part_driver, cycles,
                          drain_cycles, {k}, 1, describe, "ref", "part");
}

/// Builds the full-scheduler reference and the time-leap twin of
/// `scenario` and proves them equal at both leap granularities.
///
/// Leg 1 drives both networks per cycle. Because Network::step() is
/// Kernel::run(1), the twin's kernel takes the leap decision every cycle
/// and skips (freezes) each quiescent one — so the digest comparison
/// runs *inside* leapt regions: a frozen cycle must be byte-identical to
/// the reference's ticked one, which is exactly the "skipped ticks are
/// observable no-ops" obligation.
///
/// Leg 2 re-runs the scenario advancing both sides in mixed-width
/// driver.run() spans. That path registers the twin driver's injector
/// module (TrafficDriver does so only under an unpartitioned kTimeLeap
/// kernel), so multi-cycle calendar leaps, injector look-ahead, and
/// wake-at-leap-target all engage; digests compare wherever the two
/// clocks realign, and the drain advances both sides in fixed windows.
inline DiffResult run_differential(const DiffScenario& scenario) {
  // Mixed span widths: shorter than, comparable to, and much longer than
  // typical idle gaps, so leaps land both inside spans and truncated at
  // span boundaries (the wake-at-leap-target edge).
  static const std::vector<std::size_t> kPerCycle;
  static const std::vector<std::size_t> kSpans = {1, 7, 3, 64, 2, 13, 33, 5};
  struct Leg {
    const std::vector<std::size_t>& spans;
    std::size_t drain_span;
    const char* name;
  };
  for (const Leg& leg : {Leg{kPerCycle, 1, " [leap per-cycle]"},
                         Leg{kSpans, 16, " [leap chunked]"}}) {
    noc::Network ref(scenario.build_topology(),
                     scenario.net_config(sim::Scheduler::kFull));
    noc::Network leap(scenario.build_topology(),
                      scenario.net_config(sim::Scheduler::kTimeLeap));
    traffic::TrafficDriver ref_driver(ref, scenario.traffic_config());
    traffic::TrafficDriver leap_driver(leap, scenario.traffic_config());
    DiffResult result = detail::lockstep(
        ref, leap, ref_driver, leap_driver, scenario.cycles,
        scenario.drain_cycles, leg.spans, leg.drain_span,
        scenario.to_string() + leg.name, "full", "leap");
    if (!result.ok) return result;
  }
  return {};
}

/// Partitioned time-leap twin vs the unpartitioned full reference:
/// partition-local leaps are capped at the epoch barrier and the
/// wholesale fast-forward only fires when every partition sleeps, so
/// the barrier protocol (digests compared per epoch, per-cycle drain)
/// applies unchanged.
inline DiffResult run_differential_partitioned(const DiffScenario& scenario,
                                               std::size_t partitions,
                                               std::size_t sim_threads) {
  noc::Network ref(scenario.build_topology(),
                   scenario.net_config(sim::Scheduler::kFull));
  noc::Network part(scenario.build_topology(),
                    scenario.net_config(sim::Scheduler::kTimeLeap,
                                        partitions, sim_threads));
  traffic::TrafficDriver ref_driver(ref, scenario.traffic_config());
  traffic::TrafficDriver part_driver(part, scenario.traffic_config());
  std::ostringstream label;
  label << scenario.to_string() << " [leap partitioned p=" << partitions
        << " t=" << sim_threads << "]";
  return run_lockstep_partitioned(ref, part, ref_driver, part_driver,
                                  scenario.cycles, scenario.drain_cycles,
                                  label.str());
}

/// Greedy scenario shrinking: tries a fixed set of simplifying mutations
/// (shorter run, calmer traffic, fewer lanes, smaller topology) and
/// keeps each one that still reproduces a divergence under
/// run_differential. Returns the minimal still-failing scenario (the
/// input if nothing smaller fails).
inline DiffScenario shrink_divergence(DiffScenario scenario) {
  auto still_fails = [](const DiffScenario& s) {
    return !run_differential(s).ok;
  };
  // Cut the driven window toward the first divergent cycle first — every
  // later mutation then re-verifies against the cheap short run.
  for (int pass = 0; pass < 3; ++pass) {
    DiffScenario t = scenario;
    t.cycles = std::max<std::size_t>(1, t.cycles / 2);
    if (t.cycles < scenario.cycles && still_fails(t)) {
      scenario = t;
      continue;
    }
    break;
  }
  {
    DiffScenario t = scenario;
    t.burstiness = 0.0;
    if (scenario.burstiness != 0.0 && still_fails(t)) scenario = t;
  }
  {
    DiffScenario t = scenario;
    t.bit_error_rate = 0.0;
    if (scenario.bit_error_rate != 0.0 && still_fails(t)) scenario = t;
  }
  {
    DiffScenario t = scenario;
    t.injection_rate = scenario.injection_rate / 4;
    if (still_fails(t)) scenario = t;
  }
  // Lane reduction only where vcs == 1 routes stay deadlock-free.
  if (scenario.vcs > 1 && (scenario.topology == "mesh" ||
                           scenario.topology == "star")) {
    DiffScenario t = scenario;
    t.vcs = 1;
    if (still_fails(t)) scenario = t;
  }
  if (scenario.topology == "mesh" || scenario.topology == "torus") {
    while (scenario.width > 2 || scenario.height > 2) {
      DiffScenario t = scenario;
      if (t.width > 2) --t.width;
      else --t.height;
      if (!still_fails(t)) break;
      scenario = t;
    }
  } else {
    while (scenario.width > 3) {
      DiffScenario t = scenario;
      --t.width;
      if (!still_fails(t)) break;
      scenario = t;
    }
  }
  return scenario;
}

/// run_differential + automatic shrinking on failure: the returned
/// result's detail describes the *minimal* reproduction.
inline DiffResult run_differential_shrunk(const DiffScenario& scenario) {
  DiffResult result = run_differential(scenario);
  if (result.ok) return result;
  const DiffScenario minimal = shrink_divergence(scenario);
  DiffResult shrunk = run_differential(minimal);
  if (!shrunk.ok) {
    shrunk.detail += "\n  (shrunk from: " + scenario.to_string() + ")";
    return shrunk;
  }
  return result;  // shrinking raced a flaky repro; report the original
}

/// A trace whose entries lie thousands of cycles apart, for
/// `initiators` x `targets` cores: replay must leap its gaps without
/// moving an entry. Every entry is due before cycle 15000.
inline workload::Trace sparse_trace(std::uint32_t initiators,
                                    std::uint32_t targets,
                                    const std::string& name) {
  workload::Trace trace;
  trace.name = name;
  trace.initiators = initiators;
  trace.targets = targets;
  trace.entries = {
      {0, 0, 1, ocp::Cmd::kRead, 0, 1, 0},
      {0, 2, 3, ocp::Cmd::kWrite, 64, 4, 1},
      {2500, 1, 0, ocp::Cmd::kWriteNp, 4000, 2, 2},
      {7777, 3, 2, ocp::Cmd::kRead, 8, 3, 3},
      {7777, 0, 1, ocp::Cmd::kWrite, 8, 2, 0},
      {14000, initiators - 1, targets - 1, ocp::Cmd::kRead, 128, 4, 0},
  };
  return trace;
}

/// Replays `trace` on `net` through a TraceDriver while re-recording it:
/// one run() per entry of `spans` and then a drain, or replay() when
/// `spans` is empty. Returns the re-recorded trace bytes and
/// collect_run(net, stats_cycles), which every replay of one trace must
/// reproduce.
inline std::pair<std::string, std::string> replay_rerecorded(
    noc::Network& net, const workload::Trace& trace,
    const std::vector<std::size_t>& spans, std::uint64_t stats_cycles) {
  workload::TraceRecorder recorder(net, trace.name);
  workload::TraceDriver driver(net, trace);
  if (spans.empty()) {
    driver.replay(20000);
  } else {
    for (const std::size_t span : spans) driver.run(span);
    net.run_until_quiescent(20000);
  }
  return {workload::write_trace(recorder.trace()),
          traffic::collect_run(net, stats_cycles).to_string()};
}

}  // namespace xpl::testsupport
