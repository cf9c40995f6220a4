// The campaign workload: a 48-point xsweep-style grid run by
// SweepRunner::run at jobs 2, repeated until the time budget is spent.
// The traced run replays every point through the same public calls as
// SweepRunner::run_point, with spans around each layer, dispatched through
// SweepRunner::run_indexed at jobs 2; its CSV must equal the runner's byte
// for byte, which proves the spans timed the same work.
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "probes.hpp"
#include "src/compiler/compiler.hpp"
#include "src/sweep/runner.hpp"
#include "src/topology/deadlock.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/benchmarks.hpp"
#include "workloads.hpp"

namespace xbench {
namespace {

using namespace xpl;

constexpr std::size_t kJobs = 2;
constexpr std::uint64_t kWindow = 500;  ///< cycles per TrafficDriver::run span
constexpr int kMinReps = 3;
constexpr int kSetupBlock = 50;

/// The schema marks SweepRunner::run derives from the spec.
void mark_axes(const sweep::SweepSpec& spec, sweep::ResultTable& table) {
  if (spec.flows.size() > 1 || spec.flows.front() != "ack_nack") {
    table.mark_flow_axis();
  }
  if (spec.vcss.size() > 1 || spec.vcss.front() != 1) table.mark_vcs_axis();
}

struct CampaignRep {
  double run_s = 0.0;
  double wall_s = 0.0;
  std::size_t points = 0;
  std::size_t failed = 0;
  std::uint64_t driven_cycles = 0;
  std::string csv;
  double speed = 1.0;  ///< host_speed() just before (untraced only)
};

/// One untraced campaign: parse + expand, SweepRunner::run, CSV export.
CampaignRep run_campaign(std::uint64_t seed) {
  CampaignRep rep;
  const std::string text = campaign_spec_text(seed);
  const auto t0 = Clock::now();
  const sweep::SweepSpec spec = sweep::parse_sweep(text);
  rep.points = spec.points().size();
  const auto t1 = Clock::now();
  const sweep::ResultTable table = sweep::SweepRunner(kJobs).run(spec);
  rep.run_s = seconds_since(t1);
  rep.csv = table.to_csv();
  rep.wall_s = seconds_since(t0);
  for (const auto& row : table.rows()) {
    if (!row.ok) ++rep.failed;
    rep.driven_cycles += row.point.sim_cycles;
  }
  return rep;
}

std::uint64_t csv_digest(const std::string& csv) {
  Fnv h;
  h.mix(csv);
  return h.value();
}

}  // namespace

std::string campaign_spec_text(std::uint64_t seed) {
  return "sweep xbench_campaign\n"
         "seed " + std::to_string(seed) + "\n"
         "cycles 3000\n"
         "drain 40000\n"
         "topology mesh\n"
         "width 4 8\n"
         "height 4 8\n"
         "flit_width 64\n"
         "fifo_depth 4\n"
         "flow ack_nack credit\n"
         "pattern uniform app:mpeg4\n"
         "injection_rate 0.002 0.02 0.05\n";
}

sweep::SweepResult replicate_point(const sweep::SweepPoint& point,
                                   Tracer& tracer, PointTrace& tr) {
  const bool traced = tracer.enabled();
  sweep::SweepResult result;
  result.point = point;
  result.evaluated = true;
  const auto t0 = Clock::now();
  const std::uint64_t a0 = allocs_this_thread();
  try {
    compiler::NocSpec spec;
    spec.name = point.label();
    spec.topo = point.build_topology();
    spec.net = point.net;

    if (traced) {
      auto t = Clock::now();
      topology::RoutingTables routes;
      {
        SpanScope span(tracer, "topology.routes");
        routes = topology::compute_all_routes(spec.topo, spec.net.routing);
      }
      tr.routes_s = seconds_since(t);
      t = Clock::now();
      {
        SpanScope span(tracer, "topology.deadlock");
        (void)topology::check_deadlock(
            spec.topo, routes,
            topology::make_vc_policy(spec.topo, spec.net.routing,
                                     spec.net.vcs));
      }
      tr.deadlock_s = seconds_since(t);
    }

    const compiler::XpipesCompiler xpipes;
    std::unique_ptr<noc::Network> network;
    const auto tb = Clock::now();
    {
      SpanScope span(tracer, "compiler.build");
      network = xpipes.build_simulation(spec);
    }
    tr.build_s = seconds_since(tb);

    traffic::TrafficConfig traffic_cfg = point.traffic;
    if (!point.app.empty()) {
      traffic_cfg.weights = workload::benchmark_weights(
          workload::benchmark(point.app), spec.topo);
    }
    traffic::TrafficDriver driver(*network, traffic_cfg);

    const std::uint64_t run_a0 = allocs_this_thread();
    // Traced, the first window is the per-cycle leg.
    drive(*network, driver, point.sim_cycles, kWindow, kWindow, tracer,
          tr.progress, tr.log);
    drain(*network, driver, point.drain_cycles, tracer, tr.progress);
    tr.run_allocs = allocs_this_thread() - run_a0;
    tr.run_cycles = point.sim_cycles + tr.progress.drained;
    tr.leapt = network->kernel().leapt_cycles();
    tr.epochs = network->kernel().epochs();
    tr.cut_flits = network->kernel().cut_flits();

    traffic::RunStats stats;
    {
      SpanScope span(tracer, "traffic.collect");
      stats = traffic::collect_run(*network, point.sim_cycles, point.warmup);
    }
    result.transactions = stats.transactions;
    result.avg_latency_cycles = stats.latency.mean;
    result.p95_latency_cycles = stats.latency.p95;
    result.throughput_tpc = stats.throughput;
    result.link_flits = stats.link_flits;
    result.retransmissions = stats.retransmissions;
    result.credit_stalls = stats.credit_stalls;
    result.avg_link_utilization = stats.avg_link_utilization;
    tr.link_flits = stats.link_flits;
    tr.retx = stats.retransmissions;
    tr.credit_stalls = stats.credit_stalls;
    tr.txns_per_kcycle = 1000.0 * stats.throughput;
    tr.latency_p50 = stats.latency.p50;
    tr.latency_p95 = stats.latency.p95;

    if (point.estimate) {
      SpanScope span(tracer, "synth.estimate");
      const auto report = xpipes.estimate(spec, point.target_mhz);
      result.area_mm2 = report.total_area_mm2;
      result.power_mw = report.total_power_mw;
      result.fmax_mhz = report.min_fmax_mhz;
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  tr.allocs = allocs_this_thread() - a0;
  tr.wall_s = seconds_since(t0);
  return result;
}

Outcome run_campaign_workload(const Options& opts) {
  Outcome out;
  const auto start = Clock::now();
  std::vector<CampaignRep> reps;
  const int untraced_min = opts.trace ? 1 : kMinReps;
  // Set-up is ~20 us: it is timed in blocks, one before each campaign so
  // that the samples spread over the run, after one warm-up block.
  std::vector<double> setup;
  std::size_t expected_points = 0;
  const auto time_setup_block = [&] {
    const auto t = Clock::now();
    for (int i = 0; i < kSetupBlock; ++i) {
      const sweep::SweepSpec spec =
          sweep::parse_sweep(campaign_spec_text(opts.seed));
      const std::size_t n = spec.points().size();
      if (expected_points == 0) expected_points = n;
      if (n != expected_points) {
        out.fail_check("campaign: point expansion is not repeatable");
      }
    }
    return seconds_since(t) / kSetupBlock;
  };
  if (!opts.trace) (void)time_setup_block();
  // A campaign is started only if one more, as long as the last, still
  // ends within the budget. Untraced, each is preceded by a host-speed
  // measurement that converts its times (and the set-up block's) to the
  // nominal host (see host_speed()).
  double last_s = 0.0;
  while (static_cast<int>(reps.size()) < untraced_min ||
         (!opts.trace && seconds_since(start) + last_s < opts.seconds)) {
    const auto ti = Clock::now();
    const double speed = opts.trace ? 1.0 : host_speed();
    if (!opts.trace) setup.push_back(time_setup_block() * speed);
    reps.push_back(run_campaign(opts.seed));
    reps.back().speed = speed;
    last_s = seconds_since(ti);
    std::fprintf(stderr,
                 "campaign rep %zu: host speed %.3f, %.2f points/s, wall "
                 "%.3f s\n",
                 reps.size(), speed,
                 static_cast<double>(reps.back().points) / reps.back().run_s,
                 reps.back().wall_s);
  }
  out.digest = csv_digest(reps.front().csv);
  for (const CampaignRep& r : reps) {
    if (csv_digest(r.csv) != out.digest) {
      out.fail_check("campaign: CSV differs between repetitions");
    }
  }
  // Every campaign's CSV is the same (checked above), so the operations of
  // the run are the points of one campaign.
  out.attempted = reps.front().points;
  out.failed = reps.front().failed;
  if (!opts.trace) {
    if (expected_points != reps.front().points) {
      out.fail_check("campaign: set-up expanded a different point count");
    }
    std::vector<double> cps, pps, wall, speed, host_pps, host_wall;
    for (const CampaignRep& r : reps) {
      const double host_cps = static_cast<double>(r.driven_cycles) / r.run_s;
      host_pps.push_back(static_cast<double>(r.points) / r.run_s);
      host_wall.push_back(r.wall_s);
      cps.push_back(host_cps / r.speed);
      pps.push_back(host_pps.back() / r.speed);
      wall.push_back(r.wall_s * r.speed);
      speed.push_back(r.speed);
    }
    out.add("setup_s", median(setup), "s");
    out.add("cycles_per_s", median(cps), "cycles/s");
    out.add("points_per_s", median(pps), "points/s");
    out.add("wall_s", median(wall), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "host speed %.4f (median of %zu); host-time medians: "
                  "points_per_s %.6g, wall_s %.6g",
                  median(speed), reps.size(), median(host_pps),
                  median(host_wall));
    out.notes.push_back(buf);
    return out;
  }

  // ---- Traced replica.
  Tracer tracer(true);
  const sweep::SweepSpec spec =
      sweep::parse_sweep(campaign_spec_text(opts.seed));
  const std::vector<sweep::SweepPoint> points = spec.points();
  set_alloc_counting(true);
  const std::uint64_t setup_a0 = allocs_this_thread();
  (void)sweep::parse_sweep(campaign_spec_text(opts.seed)).points();
  const double setup_allocs =
      static_cast<double>(allocs_this_thread() - setup_a0);

  const int n_reps = std::clamp(
      static_cast<int>(opts.seconds / (2.0 * reps.front().wall_s)), 1, 3);
  std::vector<PointTrace> traces;
  std::vector<double> dispatch_s;
  std::map<std::thread::id, double> busy;
  std::mutex mutex;
  for (int r = 0; r < n_reps; ++r) {
    sweep::ResultTable table(points.size());
    mark_axes(spec, table);
    std::vector<PointTrace> rep_traces(points.size());
    const auto td = Clock::now();
    sweep::SweepRunner(kJobs).run_indexed(points.size(), [&](std::size_t i) {
      Tracer::set_request(
          static_cast<std::uint32_t>(r * points.size() + i + 1));
      sweep::SweepResult res =
          replicate_point(points[i], tracer, rep_traces[i]);
      std::lock_guard<std::mutex> lock(mutex);
      busy[std::this_thread::get_id()] += rep_traces[i].wall_s;
      table.set(std::move(res));
    });
    dispatch_s.push_back(seconds_since(td));
    if (csv_digest(table.to_csv()) != out.digest) {
      out.fail_check("campaign: run_point replica CSV differs from "
                     "SweepRunner::run");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (rep_traces[i].progress.wedged()) {
        out.notes.push_back("campaign: point " + points[i].label() +
                            " failed the forward-progress check");
      }
    }
    traces.insert(traces.end(), rep_traces.begin(), rep_traces.end());
  }
  set_alloc_counting(false);

  // Component probes at the largest point's configuration.
  ProbeConfig pc;
  {
    const sweep::SweepPoint* big = &points.front();
    for (const auto& p : points) {
      if (p.num_switches() > big->num_switches()) big = &p;
    }
    compiler::NocSpec probe_spec;
    probe_spec.topo = big->build_topology();
    probe_spec.net = big->net;
    const auto net = compiler::XpipesCompiler().build_simulation(probe_spec);
    pc.format = net->format();
    pc.flow = big->net.flow;
    pc.vcs = big->net.vcs;
    pc.radix = net->topo().max_radix_out();
    pc.scheduler = big->net.scheduler;
    pc.min_burst = big->traffic.min_burst;
    pc.max_burst = big->traffic.max_burst;
    pc.read_fraction = big->traffic.read_fraction;
    pc.seed = opts.seed;
  }
  const ProbeResults probes = run_probes(pc);

  // ---- Per-layer rows: layer times are per campaign (sums over points,
  // median over replica repetitions).
  const auto per_campaign = [&](auto fn) {
    std::vector<double> sums(static_cast<std::size_t>(n_reps), 0.0);
    for (std::size_t k = 0; k < traces.size(); ++k) {
      sums[k / points.size()] += fn(traces[k]);
    }
    return median(sums);
  };
  std::vector<double> point_s, windows, awake, per_point_allocs, p50s, p95s;
  double cycles = 0, driven = 0, leapt = 0, epochs = 0, cut = 0;
  double flits = 0, retx = 0, stalls = 0;
  double run_allocs = 0, step_s = 0, leg = 0, txns = 0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const PointTrace& t = traces[k];
    point_s.push_back(t.wall_s);
    windows.insert(windows.end(), t.log.window_ns_per_cycle.begin(),
                   t.log.window_ns_per_cycle.end());
    awake.insert(awake.end(), t.log.awake_samples.begin(),
                 t.log.awake_samples.end());
    per_point_allocs.push_back(static_cast<double>(t.allocs));
    cycles += static_cast<double>(t.run_cycles);
    driven += static_cast<double>(points[k % points.size()].sim_cycles);
    leapt += static_cast<double>(t.leapt);
    epochs += static_cast<double>(t.epochs);
    cut += static_cast<double>(t.cut_flits);
    flits += static_cast<double>(t.link_flits);
    retx += static_cast<double>(t.retx);
    stalls += static_cast<double>(t.credit_stalls);
    run_allocs += static_cast<double>(t.run_allocs);
    step_s += t.log.step_driver_s;
    leg += static_cast<double>(t.log.leg_cycles);
    txns += t.txns_per_kcycle *
            static_cast<double>(points[k % points.size()].sim_cycles) / 1000.0;
    p50s.push_back(t.latency_p50);
    p95s.push_back(t.latency_p95);
  }
  double total_busy = 0.0, max_busy = 0.0;
  for (const auto& [id, b] : busy) {
    total_busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double reps_d = static_cast<double>(n_reps);

  out.add("topology.routes_s", per_campaign([](const PointTrace& t) {
            return t.routes_s;
          }), "s");
  out.add("topology.deadlock_s", per_campaign([](const PointTrace& t) {
            return t.deadlock_s;
          }), "s");
  out.add("compiler.build_s", per_campaign([](const PointTrace& t) {
            return t.build_s;
          }), "s");
  out.add("noc.drain_s", tracer.total("noc.drain") / reps_d, "s");
  out.add("synth.estimate_s", tracer.total("synth.estimate") / reps_d, "s");
  out.add("sweep.point_s_p50", quantile(point_s, 0.5), "s");
  out.add("sweep.point_s_p95", quantile(point_s, 0.95), "s");
  double dispatch_total = 0.0;
  for (double d : dispatch_s) dispatch_total += d;
  out.add("sweep.busy_frac",
          ratio(total_busy, static_cast<double>(kJobs) * dispatch_total),
          "ratio");
  out.add("sweep.imbalance",
          ratio(max_busy, total_busy / static_cast<double>(busy.size())),
          "ratio");
  out.add("sim.ns_per_cycle_p50", quantile(windows, 0.5), "ns");
  out.add("sim.ns_per_cycle_p99", quantile(windows, 0.99), "ns");
  out.add("sim.leapt_frac", ratio(leapt, cycles), "ratio");
  out.add("sim.awake_frac", mean(awake), "ratio");
  out.add("sim.commit_ns", probes.commit_ns, "ns");
  out.add("sim.calendar_ns", probes.calendar_ns, "ns");
  out.add("sim.epochs_per_kcycle", 1000.0 * ratio(epochs, cycles), "count");
  out.add("sim.cut_flits_per_kcycle", 1000.0 * ratio(cut, cycles), "count");
  // Points run on one simulation thread each: N = 1 in the definition.
  out.add("sim.parallel_eff", 1.0, "ratio");
  out.add("switchlib.flit_ns", probes.switch_flit_ns, "ns");
  out.add("link.hop_ns", probes.link_hop_ns, "ns");
  out.add("link.flits_per_cycle", ratio(flits, cycles), "flits/cycle");
  out.add("link.retx_per_flit", ratio(retx, flits - retx), "ratio");
  out.add("link.credit_stalls_per_cycle", ratio(stalls, cycles), "count");
  out.add("ni.txn_ns", probes.ni_txn_ns, "ns");
  out.add("traffic.step_ns", 1e9 * ratio(step_s, leg), "ns");
  out.add("traffic.collect_s", tracer.total("traffic.collect") / reps_d, "s");
  out.add("alloc.setup", setup_allocs, "count");
  out.add("alloc.per_cycle", ratio(run_allocs, cycles), "count");
  out.add("alloc.per_point", median(per_point_allocs), "count");
  out.add("ocp.txns_per_kcycle", 1000.0 * ratio(txns, driven), "count");
  out.add("ocp.latency_p50_cycles", median(p50s), "cycles");
  out.add("ocp.latency_p95_cycles", median(p95s), "cycles");
  out.add("link_flits", flits / reps_d, "count");
  out.add("retx", retx / reps_d, "count");
  out.add("credit_stalls", stalls / reps_d, "count");
  out.add("trace.overhead", ratio(median(dispatch_s), reps.front().run_s),
          "ratio");
  out.notes.push_back("replica repetitions: " + std::to_string(n_reps) +
                      ", points traced: " + std::to_string(traces.size()));
  out.spans = tracer.spans();
  return out;
}

}  // namespace xbench
