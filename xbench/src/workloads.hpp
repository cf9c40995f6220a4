// The benchmark's workloads and the wedge self-test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/link/flow.hpp"
#include "src/noc/network.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"
#include "src/traffic/traffic.hpp"
#include "xbench.hpp"

namespace xbench {

/// One network workload: a single XY-routed mesh driven by uniform
/// traffic in windows, then drained.
struct NetShape {
  std::string name;
  std::size_t side = 8;
  std::size_t flit_width = 64;
  xpl::link::FlowControl flow = xpl::link::FlowControl::kAckNack;
  std::size_t vcs = 1;
  double rate = 0.05;
  std::size_t partitions = 1;
  std::size_t threads = 1;
  std::uint64_t drive_cycles = 20000;
  std::uint64_t window = 100;  ///< cycles per TrafficDriver::run span
};

/// Drain budget after the driven cycles (the sweep engine's default).
inline constexpr std::uint64_t kDrainCap = 40000;

/// The three network workloads by name, or nullptr.
const NetShape* find_network_workload(const std::string& name);

/// Forward-progress verdict of one driven-and-drained run.
struct Progress {
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  /// Stretches of >= kStallCycles driven cycles with work outstanding and
  /// no transaction completing.
  std::uint64_t stalls = 0;
  std::uint64_t last_progress_cycle = 0;  ///< last window that completed one
  std::uint64_t drained = 0;              ///< cycles run_until_quiescent took
  bool quiescent = false;                 ///< drained within the budget
  bool wedged() const { return stalls > 0 || !quiescent; }
};

inline constexpr std::uint64_t kStallCycles = 1000;

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// What a traced drive records: window costs and scheduler shares.
struct DriveLog {
  std::vector<double> window_ns_per_cycle;
  std::vector<double> awake_samples;  ///< awake/module share per window
  double step_driver_s = 0.0;  ///< driver.step() time in the per-cycle leg
  std::uint64_t leg_cycles = 0;
};

std::uint64_t completed_count(xpl::noc::Network& net);

/// Drives `cycles` cycles in TrafficDriver::run windows of `window`,
/// checking forward progress after each. Traced, the first `leg` cycles
/// step the driver and the network separately (timing driver.step()),
/// and every other window is a "sim.window" span.
void drive(xpl::noc::Network& net, xpl::traffic::TrafficDriver& driver,
           std::uint64_t cycles, std::uint64_t window, std::uint64_t leg,
           Tracer& tracer, Progress& progress, DriveLog& log);

/// run_until_quiescent(cap) in a "noc.drain" span, then the drain verdict
/// and the final injected/completed counts.
void drain(xpl::noc::Network& net, const xpl::traffic::TrafficDriver& driver,
           std::uint64_t cap, Tracer& tracer, Progress& progress);

/// Runs one untraced repetition of `shape` (used by the self-test).
Progress probe_progress(const NetShape& shape, std::uint64_t seed);

/// A campaign point run through the same public calls as
/// SweepRunner::run_point, with spans around each layer, plus the drain
/// verdict run_point does not report.
struct PointTrace {
  Progress progress;
  DriveLog log;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;       ///< this thread, whole point
  std::uint64_t run_allocs = 0;   ///< this thread, drive + drain
  std::uint64_t run_cycles = 0;   ///< driven + drained
  double routes_s = 0.0;
  double deadlock_s = 0.0;
  double build_s = 0.0;
  std::uint64_t leapt = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cut_flits = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t retx = 0;
  std::uint64_t credit_stalls = 0;
  double txns_per_kcycle = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
};

xpl::sweep::SweepResult replicate_point(const xpl::sweep::SweepPoint& point,
                                        Tracer& tracer, PointTrace& trace);

/// The campaign's sweep specification at `seed`.
std::string campaign_spec_text(std::uint64_t seed);

Outcome run_network_workload(const NetShape& shape, const Options& opts);
Outcome run_campaign_workload(const Options& opts);

/// Wedge self-test: the forward-progress check must fire on the known
/// wedged configurations. Returns the process exit code.
int run_wedge_selftest();

}  // namespace xbench
