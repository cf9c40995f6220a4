// Network workloads: one mesh built, driven in TrafficDriver::run windows
// with a forward-progress check, drained, and its statistics collected —
// repeated until the time budget is spent. The traced run repeats the
// same repetitions with spans, allocation counting and window sampling,
// plus the isolated component probes at the workload's configuration.
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "probes.hpp"
#include "src/compiler/compiler.hpp"
#include "src/sweep/runner.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xpl;

constexpr std::uint64_t kLegCycles = 1000;  ///< traced per-cycle leg
constexpr int kMinReps = 3;
constexpr int kExtraSetups = 2;  ///< extra set-up samples per repetition
constexpr auto kRouting = topology::RoutingAlgorithm::kXY;

/// Simulation threads for partitioned runs: one per CPU, up to 4, leaving
/// one CPU free. With every CPU busy, any other process stalls the epoch
/// barrier (on 4 CPUs, 4 threads measured 1.3k-4.5k cycles/s run to run).
std::size_t sim_threads_for_host() {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(cpus - 1, 1, 4);
}

std::vector<NetShape> make_shapes() {
  std::vector<NetShape> shapes;
  NetShape knee;
  knee.name = "mesh8_knee";
  knee.rate = 0.05;
  knee.drive_cycles = 20000;
  shapes.push_back(knee);

  NetShape sat;
  sat.name = "mesh8_saturated";
  sat.flow = link::FlowControl::kCredit;
  sat.vcs = 2;
  sat.rate = 0.3;
  sat.drive_cycles = 4000;
  shapes.push_back(sat);

  NetShape big;
  big.name = "mesh16_parallel";
  big.side = 16;
  big.flit_width = 128;
  big.rate = 0.02;
  big.threads = sim_threads_for_host();
  big.partitions = std::max<std::size_t>(2, big.threads);  // cut on any host
  big.drive_cycles = 8000;
  big.window = 200;
  shapes.push_back(big);
  return shapes;
}

compiler::NocSpec make_spec(const NetShape& s, std::uint64_t seed) {
  compiler::NocSpec spec;
  spec.name = s.name;
  const auto plan = topology::NiPlan::uniform(s.side * s.side, 1, 1);
  spec.topo = topology::make_mesh(s.side, s.side, plan);
  spec.net.routing = kRouting;
  spec.net.flit_width = s.flit_width;
  spec.net.flow = s.flow;
  spec.net.vcs = s.vcs;
  spec.net.partitions = s.partitions;
  spec.net.sim_threads = s.threads;
  spec.net.seed = seed;
  return spec;
}

traffic::TrafficConfig make_traffic(const NetShape& s, std::uint64_t seed) {
  traffic::TrafficConfig t;
  t.injection_rate = s.rate;
  t.seed = seed;
  return t;
}

/// Digest of a finished run: the kernel's committed state plus every
/// collect_run field and the progress counts.
std::uint64_t result_digest(noc::Network& net, const traffic::RunStats& st,
                            const Progress& p) {
  Fnv h;
  h.mix(net.kernel().digest());
  h.mix(p.injected);
  h.mix(p.completed);
  h.mix(p.drained);
  h.mix(st.transactions);
  h.mix(st.cycles);
  h.mix(st.latency.count);
  h.mix(st.latency.mean);
  h.mix(st.latency.min);
  h.mix(st.latency.max);
  h.mix(st.latency.p50);
  h.mix(st.latency.p95);
  h.mix(st.throughput);
  h.mix(st.link_flits);
  h.mix(st.retransmissions);
  h.mix(st.credit_stalls);
  h.mix(st.avg_link_utilization);
  return h.value();
}

/// One repetition: config -> setup -> windows -> drain -> statistics.
struct Rep {
  Progress progress;
  traffic::RunStats stats;
  std::uint64_t digest = 0;
  double setup_s = 0.0;
  double run_s = 0.0;  ///< drive + drain
  double wall_s = 0.0;
  std::uint64_t cycles = 0;  ///< driven + drained
  double speed = 1.0;        ///< host_speed() just before (untraced only)

  // Traced only.
  double routes_s = 0.0;
  double deadlock_s = 0.0;
  double build_s = 0.0;
  double drain_s = 0.0;
  double collect_s = 0.0;
  DriveLog log;
  std::uint64_t leapt = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cut_flits = 0;
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  std::uint64_t allocs_total = 0;
  PacketFormat format;
  std::size_t max_radix = 0;
  sim::Scheduler scheduler = sim::Scheduler::kGated;
};

Rep run_rep(const NetShape& shape, std::uint64_t seed, Tracer& tracer) {
  const bool traced = tracer.enabled();
  Rep rep;
  if (traced) {
    // The topology layer timed from outside: the same calls the Network
    // constructor makes, on the same topology, before the repetition.
    const compiler::NocSpec probe = make_spec(shape, seed);
    auto t = Clock::now();
    topology::RoutingTables routes;
    {
      SpanScope span(tracer, "topology.routes");
      routes = topology::compute_all_routes(probe.topo, kRouting);
    }
    rep.routes_s = seconds_since(t);
    t = Clock::now();
    {
      SpanScope span(tracer, "topology.deadlock");
      (void)topology::check_deadlock(
          probe.topo, routes,
          topology::make_vc_policy(probe.topo, kRouting, shape.vcs));
    }
    rep.deadlock_s = seconds_since(t);
  }

  SpanScope rep_span(tracer, "rep");
  const std::uint64_t allocs0 = allocs_global();
  const auto t0 = Clock::now();
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<traffic::TrafficDriver> driver;
  {
    SpanScope span(tracer, "setup");
    const compiler::NocSpec spec = make_spec(shape, seed);
    const compiler::XpipesCompiler xpipes;
    const auto tb = Clock::now();
    {
      SpanScope build(tracer, "compiler.build");
      net = xpipes.build_simulation(spec);
    }
    rep.build_s = seconds_since(tb);
    driver = std::make_unique<traffic::TrafficDriver>(
        *net, make_traffic(shape, seed));
  }
  rep.setup_s = seconds_since(t0);
  rep.allocs_setup = allocs_global() - allocs0;
  rep.format = net->format();
  rep.max_radix = net->topo().max_radix_out();
  rep.scheduler = net->config().scheduler;

  sim::Kernel& kernel = net->kernel();
  Progress& p = rep.progress;
  const auto t1 = Clock::now();
  drive(*net, *driver, shape.drive_cycles, shape.window, kLegCycles, tracer,
        p, rep.log);
  const auto td = Clock::now();
  drain(*net, *driver, kDrainCap, tracer, p);
  rep.drain_s = seconds_since(td);
  rep.run_s = seconds_since(t1);
  rep.allocs_run = allocs_global() - allocs0 - rep.allocs_setup;
  rep.cycles = shape.drive_cycles + p.drained;
  {
    SpanScope span(tracer, "traffic.collect");
    const auto tc = Clock::now();
    rep.stats = traffic::collect_run(*net, shape.drive_cycles);
    rep.collect_s = seconds_since(tc);
  }
  rep.wall_s = seconds_since(t0);
  rep.allocs_total = allocs_global() - allocs0;
  rep.leapt = kernel.leapt_cycles();
  rep.epochs = kernel.epochs();
  rep.cut_flits = kernel.cut_flits();
  rep.digest = result_digest(*net, rep.stats, p);
  return rep;
}

/// One more set-up, built and discarded: a setup_s sample like a
/// repetition's own, so the run's median rests on more of them.
double setup_sample(const NetShape& shape, std::uint64_t seed) {
  const auto t0 = Clock::now();
  const auto net =
      compiler::XpipesCompiler().build_simulation(make_spec(shape, seed));
  const traffic::TrafficDriver driver(*net, make_traffic(shape, seed));
  return seconds_since(t0);
}

/// Checks shared by every repetition; a broken result fails `out`.
void check_rep(const NetShape& shape, const Rep& rep, std::uint64_t expect,
               Outcome& out) {
  const Progress& p = rep.progress;
  if (rep.digest != expect) {
    out.fail_check(shape.name + ": repetition digest " + hex64(rep.digest) +
                   " differs from the first " + hex64(expect));
  }
  if (p.completed > p.injected) {
    out.fail_check(shape.name + ": more completions than injections");
  }
  if (rep.stats.transactions != p.completed) {
    out.fail_check(shape.name + ": collect_run transactions != completions");
  }
  if (p.wedged()) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: forward-progress check fired: %llu stall(s), last "
                  "completion window ends at cycle %llu, drain %s after "
                  "%llu cycles",
                  shape.name.c_str(),
                  static_cast<unsigned long long>(p.stalls),
                  static_cast<unsigned long long>(p.last_progress_cycle),
                  p.quiescent ? "quiescent" : "NOT quiescent",
                  static_cast<unsigned long long>(p.drained));
    out.notes.push_back(buf);
  }
}

template <typename T, typename Fn>
std::vector<double> collect(const std::vector<T>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const T& r : reps) v.push_back(fn(r));
  return v;
}

/// The end-to-end metrics at the nominal host speed (see host_speed());
/// `setups` holds the extra set-up samples, already converted.
void add_end_to_end(const std::vector<Rep>& reps, std::vector<double> setups,
                    Outcome& out) {
  for (const Rep& r : reps) setups.push_back(r.setup_s * r.speed);
  out.add("setup_s", median(setups), "s");
  out.add("cycles_per_s", median(collect(reps, [](const Rep& r) {
            return static_cast<double>(r.cycles) / r.run_s / r.speed;
          })), "cycles/s");
  out.add("points_per_s", median(collect(reps, [](const Rep& r) {
            return 1.0 / (r.wall_s * r.speed);
          })), "points/s");
  out.add("wall_s", median(collect(reps, [](const Rep& r) {
            return r.wall_s * r.speed;
          })), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  char buf[200];
  std::snprintf(
      buf, sizeof buf,
      "host speed %.4f (median of %zu); host-time medians: setup_s %.6g, "
      "cycles_per_s %.6g, wall_s %.6g",
      median(collect(reps, [](const Rep& r) { return r.speed; })),
      reps.size(), median(collect(reps, [](const Rep& r) { return r.setup_s; })),
      median(collect(reps, [](const Rep& r) {
        return static_cast<double>(r.cycles) / r.run_s;
      })),
      median(collect(reps, [](const Rep& r) { return r.wall_s; })));
  out.notes.push_back(buf);
}

}  // namespace

const NetShape* find_network_workload(const std::string& name) {
  static const std::vector<NetShape> shapes = make_shapes();
  for (const NetShape& s : shapes) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Progress probe_progress(const NetShape& shape, std::uint64_t seed) {
  Tracer off(false);
  return run_rep(shape, seed, off).progress;
}

Outcome run_network_workload(const NetShape& shape, const Options& opts) {
  Outcome out;
  Tracer off(false);
  const auto start = Clock::now();
  std::vector<Rep> reps;
  std::vector<double> setups;  ///< extra set-up samples, converted
  // The untraced repetitions (all of them when tracing is off; the
  // baseline for the tracing overhead otherwise).
  const int untraced_min = opts.trace ? 1 : kMinReps;
  // A repetition is started only if one more, as long as the last, still
  // ends within the budget.
  double last_s = 0.0;
  while (static_cast<int>(reps.size()) < untraced_min ||
         (!opts.trace && seconds_since(start) + last_s < opts.seconds)) {
    const auto ti = Clock::now();
    const double speed = opts.trace ? 1.0 : host_speed();
    if (!opts.trace) {
      for (int i = 0; i < kExtraSetups; ++i) {
        setups.push_back(setup_sample(shape, opts.seed) * speed);
      }
    }
    reps.push_back(run_rep(shape, opts.seed, off));
    reps.back().speed = speed;
    last_s = seconds_since(ti);
    std::fprintf(stderr,
                 "%s rep %zu: host speed %.3f, setup %.3f s, %.0f cycles/s, "
                 "wall %.3f s\n",
                 shape.name.c_str(), reps.size(), speed, reps.back().setup_s,
                 static_cast<double>(reps.back().cycles) / reps.back().run_s,
                 reps.back().wall_s);
  }
  out.digest = reps.front().digest;
  for (const Rep& r : reps) check_rep(shape, r, out.digest, out);
  // Every repetition replays the same transactions bit for bit (the digest
  // check), so the operations of the run are those of one repetition.
  const Progress& first = reps.front().progress;
  out.attempted = first.injected;
  out.failed = first.injected - std::min(first.injected, first.completed);
  if (!opts.trace) {
    add_end_to_end(reps, std::move(setups), out);
    return out;
  }

  // ---- Traced repetitions, dispatched like campaign points (one worker).
  Tracer tracer(true);
  const Rep& base = reps.front();
  const int n_traced = std::clamp(
      static_cast<int>(opts.seconds / (2.0 * base.wall_s)), 1, 5);
  std::vector<Rep> traced(static_cast<std::size_t>(n_traced));
  std::map<std::thread::id, double> busy;
  std::mutex busy_mutex;
  set_alloc_counting(true);
  const auto td = Clock::now();
  sweep::SweepRunner(1).run_indexed(traced.size(), [&](std::size_t i) {
    const auto tp = Clock::now();
    Tracer::set_request(static_cast<std::uint32_t>(i + 1));
    traced[i] = run_rep(shape, opts.seed, tracer);
    std::lock_guard<std::mutex> lock(busy_mutex);
    busy[std::this_thread::get_id()] += seconds_since(tp);
  });
  const double dispatch_s = seconds_since(td);
  Tracer::set_request(0);
  set_alloc_counting(false);
  for (const Rep& r : traced) check_rep(shape, r, out.digest, out);

  // Partition layer: a twin differing only in partitioning must give the
  // same digest. A partitioned workload is timed against its 1-thread twin;
  // an unpartitioned one against a twin split one partition per thread.
  NetShape twin_shape = shape;
  if (shape.partitions > 1) {
    twin_shape.threads = 1;
  } else {
    twin_shape.threads = sim_threads_for_host();
    twin_shape.partitions = std::max<std::size_t>(2, twin_shape.threads);
  }
  const Rep twin = run_rep(twin_shape, opts.seed, off);
  if (twin.digest != out.digest) {
    out.fail_check(shape.name + ": repartitioned twin digest differs");
  }
  const bool base_parallel = shape.partitions > 1;
  const Rep& par = base_parallel ? base : twin;
  const Rep& ser = base_parallel ? twin : base;
  const double par_threads = static_cast<double>(
      base_parallel ? shape.threads : twin_shape.threads);
  const double parallel_eff =
      ratio(static_cast<double>(par.cycles) / par.run_s,
            par_threads * static_cast<double>(ser.cycles) / ser.run_s);

  // Synthesis view of the same instance.
  double estimate_s = 0.0;
  {
    const compiler::NocSpec spec = make_spec(shape, opts.seed);
    const auto te = Clock::now();
    SpanScope span(tracer, "synth.estimate");
    (void)compiler::XpipesCompiler().estimate(spec, 800.0);
    estimate_s = seconds_since(te);
  }

  ProbeConfig pc;
  pc.format = traced.front().format;
  pc.flow = shape.flow;
  pc.vcs = shape.vcs;
  pc.radix = traced.front().max_radix;
  pc.scheduler = traced.front().scheduler;
  const traffic::TrafficConfig tcfg = make_traffic(shape, opts.seed);
  pc.min_burst = tcfg.min_burst;
  pc.max_burst = tcfg.max_burst;
  pc.read_fraction = tcfg.read_fraction;
  pc.seed = opts.seed;
  const ProbeResults probes = run_probes(pc);

  // ---- Per-layer rows.
  std::vector<double> windows;
  std::vector<double> awake;
  double cycles = 0, leapt = 0, step_s = 0, leg = 0;
  double run_allocs = 0;
  for (const Rep& r : traced) {
    windows.insert(windows.end(), r.log.window_ns_per_cycle.begin(),
                   r.log.window_ns_per_cycle.end());
    awake.insert(awake.end(), r.log.awake_samples.begin(),
                 r.log.awake_samples.end());
    cycles += static_cast<double>(r.cycles);
    leapt += static_cast<double>(r.leapt);
    step_s += r.log.step_driver_s;
    leg += static_cast<double>(r.log.leg_cycles);
    run_allocs += static_cast<double>(r.allocs_run);
  }
  const traffic::RunStats& st = traced.front().stats;
  const double rep_cycles = static_cast<double>(traced.front().cycles);
  const auto med = [&](auto fn) { return median(collect(traced, fn)); };
  double total_busy = 0.0, max_busy = 0.0;
  for (const auto& [id, b] : busy) {
    total_busy += b;
    max_busy = std::max(max_busy, b);
  }

  out.add("topology.routes_s", med([](const Rep& r) { return r.routes_s; }),
          "s");
  out.add("topology.deadlock_s",
          med([](const Rep& r) { return r.deadlock_s; }), "s");
  // The whole elaboration span: it contains the constructor's own routes
  // and deadlock calls, which the two topology rows time from outside (on
  // mesh16 they are ~99% of it, so a subtracted self time is below noise).
  out.add("compiler.build_s", med([](const Rep& r) { return r.build_s; }),
          "s");
  out.add("noc.drain_s", med([](const Rep& r) { return r.drain_s; }), "s");
  out.add("synth.estimate_s", estimate_s, "s");
  const std::vector<double> point_s =
      collect(traced, [](const Rep& r) { return r.wall_s; });
  out.add("sweep.point_s_p50", quantile(point_s, 0.5), "s");
  out.add("sweep.point_s_p95", quantile(point_s, 0.95), "s");
  out.add("sweep.busy_frac", ratio(total_busy, dispatch_s), "ratio");
  out.add("sweep.imbalance",
          ratio(max_busy, total_busy / static_cast<double>(busy.size())),
          "ratio");
  out.add("sim.ns_per_cycle_p50", quantile(windows, 0.5), "ns");
  out.add("sim.ns_per_cycle_p99", quantile(windows, 0.99), "ns");
  out.add("sim.leapt_frac", ratio(leapt, cycles), "ratio");
  out.add("sim.awake_frac", mean(awake), "ratio");
  out.add("sim.commit_ns", probes.commit_ns, "ns");
  out.add("sim.calendar_ns", probes.calendar_ns, "ns");
  const double par_cycles = static_cast<double>(par.cycles);
  out.add("sim.epochs_per_kcycle",
          1000.0 * ratio(static_cast<double>(par.epochs), par_cycles),
          "count");
  out.add("sim.cut_flits_per_kcycle",
          1000.0 * ratio(static_cast<double>(par.cut_flits), par_cycles),
          "count");
  out.add("sim.parallel_eff", parallel_eff, "ratio");
  out.add("switchlib.flit_ns", probes.switch_flit_ns, "ns");
  out.add("link.hop_ns", probes.link_hop_ns, "ns");
  const double flits = static_cast<double>(st.link_flits);
  const double retx = static_cast<double>(st.retransmissions);
  out.add("link.flits_per_cycle", ratio(flits, rep_cycles), "flits/cycle");
  out.add("link.retx_per_flit", ratio(retx, flits - retx), "ratio");
  out.add("link.credit_stalls_per_cycle",
          ratio(static_cast<double>(st.credit_stalls), rep_cycles), "count");
  out.add("ni.txn_ns", probes.ni_txn_ns, "ns");
  out.add("traffic.step_ns", 1e9 * ratio(step_s, leg), "ns");
  out.add("traffic.collect_s", med([](const Rep& r) { return r.collect_s; }),
          "s");
  out.add("alloc.setup",
          med([](const Rep& r) { return static_cast<double>(r.allocs_setup); }),
          "count");
  out.add("alloc.per_cycle", ratio(run_allocs, cycles), "count");
  out.add("alloc.per_point",
          med([](const Rep& r) { return static_cast<double>(r.allocs_total); }),
          "count");
  out.add("ocp.txns_per_kcycle", 1000.0 * st.throughput, "count");
  out.add("ocp.latency_p50_cycles", st.latency.p50, "cycles");
  out.add("ocp.latency_p95_cycles", st.latency.p95, "cycles");
  out.add("link_flits", flits, "count");
  out.add("retx", retx, "count");
  out.add("credit_stalls", static_cast<double>(st.credit_stalls), "count");
  out.add("trace.overhead",
          ratio(med([](const Rep& r) { return r.wall_s; }), base.wall_s),
          "ratio");
  out.notes.push_back("traced repetitions: " + std::to_string(traced.size()) +
                      ", windows sampled: " + std::to_string(windows.size()));
  out.spans = tracer.spans();
  return out;
}

}  // namespace xbench
