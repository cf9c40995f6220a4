#include "src/noc/network.hpp"
#include "src/traffic/traffic.hpp"
#include "workloads.hpp"

namespace xbench {

std::uint64_t completed_count(xpl::noc::Network& net) {
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    done += net.master(i).completed().size();
  }
  return done;
}

void drive(xpl::noc::Network& net, xpl::traffic::TrafficDriver& driver,
           std::uint64_t cycles, std::uint64_t window, std::uint64_t leg,
           Tracer& tracer, Progress& p, DriveLog& log) {
  const bool traced = tracer.enabled();
  xpl::sim::Kernel& kernel = net.kernel();
  std::uint64_t quiet = 0;  // driven cycles since the last completion
  bool in_stall = false;
  for (std::uint64_t at = 0; at < cycles;) {
    const std::uint64_t w = std::min(window, cycles - at);
    if (traced && at < leg) {
      SpanScope span(tracer, "traffic.leg");
      for (std::uint64_t c = 0; c < w; ++c) {
        const auto ts = Clock::now();
        driver.step();
        log.step_driver_s += seconds_since(ts);
        net.step();
      }
      log.leg_cycles += w;
    } else if (traced) {
      const auto tw = Clock::now();
      {
        SpanScope span(tracer, "sim.window");
        driver.run(w);
      }
      log.window_ns_per_cycle.push_back(seconds_since(tw) * 1e9 /
                                        static_cast<double>(w));
      log.awake_samples.push_back(
          static_cast<double>(kernel.awake_count()) /
          static_cast<double>(kernel.module_count()));
    } else {
      driver.run(w);
    }
    at += w;
    const std::uint64_t done = completed_count(net);
    if (done > p.completed) {
      p.last_progress_cycle = at;
      quiet = 0;
      in_stall = false;
    } else if (driver.injected() > done) {
      quiet += w;
      if (quiet >= kStallCycles && !in_stall) {
        ++p.stalls;
        in_stall = true;
      }
    }
    p.completed = done;
  }
}

void drain(xpl::noc::Network& net, const xpl::traffic::TrafficDriver& driver,
           std::uint64_t cap, Tracer& tracer, Progress& p) {
  {
    SpanScope span(tracer, "noc.drain");
    p.drained = net.run_until_quiescent(cap);
  }
  p.injected = driver.injected();
  p.completed = completed_count(net);
  p.quiescent = net.quiescent() && p.completed == p.injected;
}

}  // namespace xbench
