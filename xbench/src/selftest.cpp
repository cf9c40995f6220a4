// Wedge self-test: the forward-progress check must fire on the wedged
// configurations known today, and stay quiet on a healthy run.
#include <cstdio>

#include "src/sweep/runner.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xpl;

NetShape mesh8(const char* name, link::FlowControl flow, double rate,
               std::uint64_t drive) {
  NetShape s;
  s.name = name;
  s.flow = flow;
  s.rate = rate;
  s.drive_cycles = drive;
  return s;
}

bool report(const char* name, bool expect_wedge, const Progress& p) {
  const bool ok = p.wedged() == expect_wedge;
  std::printf("%-44s expect %-7s got %-7s stalls %llu, last completion "
              "window ends %llu, drain %llu cycles, %s, %llu of %llu "
              "transactions failed  [%s]\n",
              name, expect_wedge ? "wedge" : "healthy",
              p.wedged() ? "wedge" : "healthy",
              static_cast<unsigned long long>(p.stalls),
              static_cast<unsigned long long>(p.last_progress_cycle),
              static_cast<unsigned long long>(p.drained),
              p.quiescent ? "quiescent" : "not quiescent",
              static_cast<unsigned long long>(p.injected - p.completed),
              static_cast<unsigned long long>(p.injected),
              ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int run_wedge_selftest() {
  // The library's default traffic seed (TrafficConfig::seed), which is
  // also the benchmark's default seed (xbench/golden.json).
  constexpr std::uint64_t kSeed = 42;
  bool ok = true;
  const auto credit = link::FlowControl::kCredit;
  const auto acknack = link::FlowControl::kAckNack;

  NetShape sat1 = mesh8("mesh8 vcs1 credit rate 0.3", credit, 0.3, 6000);
  ok &= report(sat1.name.c_str(), true, probe_progress(sat1, kSeed));
  NetShape a8 = mesh8("mesh8 vcs1 ack_nack rate 0.08", acknack, 0.08, 6000);
  ok &= report(a8.name.c_str(), true, probe_progress(a8, kSeed));
  NetShape c8 = mesh8("mesh8 vcs1 credit rate 0.08", credit, 0.08, 6000);
  ok &= report(c8.name.c_str(), true, probe_progress(c8, kSeed));

  // Torus 8x8, up*/down*: run_point reports ok although the drain never
  // empties the network; the replica's drain verdict catches it.
  {
    const sweep::SweepSpec spec = sweep::parse_sweep(
        "sweep wedge_torus\nseed 42\ncycles 3000\ndrain 40000\n"
        "topology torus\nwidth 8\nheight 8\nrouting updown\n"
        "flit_width 64\nfifo_depth 4\ninjection_rate 0.05\n");
    const sweep::SweepPoint point = spec.point(0);
    const sweep::SweepResult official = sweep::SweepRunner::run_point(point);
    Tracer off(false);
    PointTrace trace;
    const sweep::SweepResult replica = replicate_point(point, off, trace);
    const bool fired = trace.progress.wedged();
    const bool case_ok = official.ok && replica.ok && fired;
    std::printf("%-44s expect wedge   got %-7s run_point ok=%d, drain %llu "
                "cycles (cap %zu)  [%s]\n",
                "torus8 updown rate 0.05", fired ? "wedge" : "healthy",
                official.ok ? 1 : 0,
                static_cast<unsigned long long>(trace.progress.drained),
                point.drain_cycles, case_ok ? "ok" : "FAIL");
    ok &= case_ok;
  }

  // Negative control and the knee's long-run wedge.
  const NetShape* knee = find_network_workload("mesh8_knee");
  ok &= report("mesh8_knee as benchmarked", false,
               probe_progress(*knee, kSeed));
  NetShape long_knee = *knee;
  long_knee.drive_cycles = 90000;
  ok &= report("mesh8_knee driven 90k cycles", true,
               probe_progress(long_knee, kSeed));

  std::printf("wedge self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace xbench
