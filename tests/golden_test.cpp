// Golden determinism pins for the simulation core.
//
// These tests compare byte-exact artifacts — campaign CSV/JSON exports and
// a recorded `.trace` — against files checked in under tests/golden/. They
// were generated *before* the hot-path refactor (inline flit storage,
// pooled signal commit, ring-buffer FIFOs) landed, so any refactor of the
// core must reproduce the seed behaviour bit for bit to stay green. Both
// kernel schedulers are pinned: the default runs exercise the event-driven
// time-leap scheduler (`scheduler gated`, the default spelling, is its
// legacy name), and the scheduler-invariance tests re-run the artifacts
// under `scheduler full` against the same bytes. switch_alloc.txt (the
// SwitchGolden matrix) pins switch allocation across the allocator
// configurations; it predates the request-bitmask switch allocator.
// routes.txt (RoutesGolden) pins every all-pairs route table the router
// produces; it predates the single-source-tree route store.
//
// Regenerating (only when an intentional behaviour change is reviewed):
//   XPL_UPDATE_GOLDEN=1 ./golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/compiler/compiler.hpp"
#include "src/common/rng.hpp"
#include "src/compiler/spec_io.hpp"
#include "src/link/flow.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/generators.hpp"
#include "src/topology/routing.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"

namespace xpl {
namespace {

std::string golden_dir() { return std::string(XPL_SOURCE_DIR) + "/tests/golden/"; }

bool update_mode() { return std::getenv("XPL_UPDATE_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << bytes;
}

/// Compares `bytes` against the pinned golden file (or rewrites it in
/// update mode). On mismatch the first differing offset is reported.
void expect_golden(const std::string& name, const std::string& bytes) {
  const std::string path = golden_dir() + name;
  if (update_mode()) {
    write_file(path, bytes);
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden file " << path
                             << " (run with XPL_UPDATE_GOLDEN=1 to create)";
  if (bytes == want) return;
  std::size_t off = 0;
  while (off < bytes.size() && off < want.size() && bytes[off] == want[off]) {
    ++off;
  }
  FAIL() << name << " diverges from golden at byte " << off << " (got "
         << bytes.size() << " bytes, want " << want.size() << ")";
}

/// The pinned campaign: small enough to run in seconds, wide enough to
/// exercise two flit widths, two mesh shapes, and bursty + Bernoulli
/// injection. All 16 points are feasible; if one ever fails, the failure
/// row is pinned too.
const char* kCampaignSpec =
    "sweep golden\n"
    "seed 7\n"
    "cycles 1500\n"
    "topology mesh\n"
    "width 2 3\n"
    "height 2\n"
    "flit_width 16 32\n"
    "injection_rate 0.03\n"
    "burstiness 0 0.5\n";

TEST(Golden, CampaignCsvAndJsonAreByteStable) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsThreadCountInvariant) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  const sweep::ResultTable t1 = sweep::SweepRunner(1).run(spec);
  const sweep::ResultTable t8 = sweep::SweepRunner(8).run(spec);
  EXPECT_EQ(t1.to_csv(), t8.to_csv());
  EXPECT_EQ(t1.to_json(), t8.to_json());
}

TEST(Golden, CampaignIsSchedulerInvariantAgainstGolden) {
  // The pinned artifacts predate the event-driven kernel. The default
  // runs above use time-leap; this pins `scheduler full` against the
  // *same* bytes, so the schedulers are anchored to the seed behaviour
  // independently (not merely to each other).
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  ASSERT_EQ(spec.scheduler, "gated");  // the campaign-wide default
  spec.scheduler = "full";
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsTimeLeapInvariantAgainstGolden) {
  // Pins `scheduler time_leap` — quiescent cycle gaps skipped via the
  // wake calendar (DESIGN.md §9) — directly against the pre-time-leap
  // artifact bytes, and its legacy spelling `scheduler gated` likewise.
  for (const char* name : {"time_leap", "gated"}) {
    sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
    spec.scheduler = name;
    sweep::SweepRunner runner(1);
    const sweep::ResultTable table = runner.run(spec);
    expect_golden("campaign.csv", table.to_csv());
    expect_golden("campaign.json", table.to_json());
  }
}

TEST(Golden, LegacyGatedCheckpointResumesToGolden) {
  // campaign_gated.ckpt is a sidecar written by `xsweep --checkpoint
  // --halt-after 5` while `gated` was still a scheduler of its own; its
  // embedded spec says `scheduler gated`. Resuming it (the spelling now
  // resolves to time-leap) must finish with the pinned bytes.
  sweep::Checkpoint ckpt = sweep::load_checkpoint(
      golden_dir() + "campaign_gated.ckpt");
  ASSERT_EQ(ckpt.results.size(), 5u);
  const sweep::SweepSpec spec = sweep::checkpoint_spec(ckpt);
  ASSERT_EQ(spec.scheduler, "gated");
  ASSERT_EQ(sweep::write_sweep(spec),
            sweep::write_sweep(sweep::parse_sweep(kCampaignSpec)));
  ASSERT_EQ(spec.point(0).net.scheduler, sim::Scheduler::kTimeLeap);
  sweep::RunOptions opts;
  opts.resume = &ckpt.results;
  const sweep::ResultTable table = sweep::SweepRunner(1).run(spec, opts);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsPartitionedTimeLeapInvariantAgainstGolden) {
  // Time-leap composed with conservative partitioning (4 partitions on 4
  // threads, partition-local leaps capped at epoch barriers) must still
  // reproduce the pinned bytes.
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  spec.partitions = 4;
  spec.threads = 4;
  spec.scheduler = "time_leap";
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsPartitionInvariantAgainstGolden) {
  // The pinned artifacts predate partitioned simulation. Re-running the
  // campaign with every point split into 4 partitions on 4 threads must
  // reproduce the same bytes — partitioning is a throughput knob, never
  // an axis, and the goldens anchor that directly to the seed behaviour.
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  spec.partitions = 4;
  spec.threads = 4;
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

/// The flow-control comparison campaign: the same grid under ACK/nACK
/// and credit flow control. Pins (a) that ack_nack rows are identical to
/// what the hard-wired protocol produced, (b) credit-mode results, and
/// (c) the extended flow/credit_stalls export columns.
const char* kFlowCampaignSpec =
    "sweep golden_flow\n"
    "seed 7\n"
    "cycles 1200\n"
    "topology mesh\n"
    "width 2\n"
    "height 2\n"
    "flow ack_nack credit\n"
    "injection_rate 0.05 0.2\n";

TEST(Golden, FlowCampaignCsvIsByteStable) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kFlowCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  // Credit mode must never retransmit; under load it must stall instead.
  for (const auto& r : table.rows()) {
    ASSERT_TRUE(r.ok) << r.error;
    if (r.point.net.flow == link::FlowControl::kCredit) {
      EXPECT_EQ(r.retransmissions, 0u);
    }
  }
  expect_golden("campaign_flow.csv", table.to_csv());
}

/// The low-load campaign: injection rates so sparse that the event-driven
/// scheduler skips most of the network most cycles and leaps most
/// cycle gaps — the regime it optimizes. Pinned so the fast path has a
/// golden of its own, and cross-checked against the full scheduler
/// in-test.
const char* kLowLoadCampaignSpec =
    "sweep golden_lowload\n"
    "seed 13\n"
    "cycles 2000\n"
    "topology mesh\n"
    "width 3\n"
    "height 3\n"
    "flow ack_nack credit\n"
    "injection_rate 0.002 0.01\n";

TEST(Golden, LowLoadCampaignCsvIsByteStable) {
  // The default leg anchors the leaping kernel to the pinned bytes; the
  // explicit time_leap spelling and the full oracle cross-check it.
  sweep::SweepSpec spec = sweep::parse_sweep(kLowLoadCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  for (const auto& r : table.rows()) ASSERT_TRUE(r.ok) << r.error;
  expect_golden("campaign_lowload.csv", table.to_csv());

  for (const char* name : {"time_leap", "full"}) {
    spec.scheduler = name;
    const sweep::ResultTable pinned_table = runner.run(spec);
    EXPECT_EQ(pinned_table.to_csv(), table.to_csv()) << name;
  }
}

TEST(Golden, RecordedTraceIsByteStable) {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

TEST(Golden, RecordedTraceIsSchedulerInvariant) {
  // Same scenario under the full scheduler. The default (time-leap) run
  // above drives through the injector module (lookahead rolls, calendar
  // sleeps); the full oracle rolls per cycle, and the recorded `.trace`
  // must match the same pinned bytes — release cycles, not roll cycles,
  // are what the recorder sees.
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.scheduler = sim::Scheduler::kFull;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

TEST(Golden, RecordedTraceIsPartitionInvariant) {
  // Same scenario as RecordedTraceIsByteStable, but simulated as 4
  // partitions on 4 threads: the recorded `.trace` must match the same
  // pinned bytes, epoch pre-roll and all.
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.partitions = 4;
  cfg.sim_threads = 4;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

/// Switch-allocation equivalence: one saturated network per allocator
/// shape, run for a fixed span, summarized as the kernel digest (every
/// wire value) plus each switch's flits_switched and per-output packet
/// grants, so any change in which request an output grants shows up.
/// The matrix covers lanes 1..8, both arbiter policies, extra pipeline
/// stages, the dateline lane rule on a torus, a concentrated mesh, and
/// a custom hub switch with 88 (input, lane) requesters — more than one
/// 64-bit request-mask word.
struct SwitchCase {
  const char* name;
  const char* topology;  // "mesh", "torus", "cmesh" or "hub"
  std::size_t vcs;
  switchlib::ArbiterKind arbiter;
  link::FlowControl flow;
  std::size_t extra_pipeline;
};

/// A hub switch with nine leaves; every switch hosts one initiator and
/// one target, so the hub has 9 link + 2 NI inputs.
std::string hub_spec(const SwitchCase& c) {
  std::string spec = "noc hub\nflit_width 32\nrouting updown\n";
  spec += c.arbiter == switchlib::ArbiterKind::kFixedPriority
              ? "arbiter fixed\n"
              : "arbiter rr\n";
  spec += c.flow == link::FlowControl::kCredit ? "flow credit\n"
                                                : "flow ack_nack\n";
  spec += "vcs " + std::to_string(c.vcs) + "\nswitch hub\n";
  for (int l = 0; l < 9; ++l) {
    const std::string leaf = "leaf" + std::to_string(l);
    spec += "switch " + leaf + "\n";
    spec += "link hub " + leaf + "\n";
    spec += "link " + leaf + " hub\n";
  }
  for (const char* sw : {"hub", "leaf0", "leaf1", "leaf2", "leaf3", "leaf4",
                         "leaf5", "leaf6", "leaf7", "leaf8"}) {
    spec += std::string("initiator i_") + sw + " at " + sw + "\n";
    spec += std::string("target t_") + sw + " at " + sw + "\n";
  }
  return spec;
}

std::unique_ptr<noc::Network> build_switch_case(const SwitchCase& c) {
  const std::string topo = c.topology;
  if (topo == "hub") {
    compiler::NocSpec spec = compiler::parse_spec(hub_spec(c));
    spec.net.extra_switch_pipeline = c.extra_pipeline;
    return compiler::XpipesCompiler().build_simulation(spec);
  }
  noc::NetworkConfig cfg;
  cfg.target_window = 1 << 12;
  cfg.vcs = c.vcs;
  cfg.arbiter = c.arbiter;
  cfg.flow = c.flow;
  cfg.extra_switch_pipeline = c.extra_pipeline;
  if (topo == "torus") {
    cfg.routing = topology::RoutingAlgorithm::kShortestPath;
    return std::make_unique<noc::Network>(
        topology::make_torus(4, 4, topology::NiPlan::uniform(16, 1, 1)),
        cfg);
  }
  cfg.routing = topology::RoutingAlgorithm::kXY;
  if (topo == "cmesh") {
    return std::make_unique<noc::Network>(topology::make_cmesh(3, 3, 4),
                                          cfg);
  }
  return std::make_unique<noc::Network>(
      topology::make_mesh(4, 4, topology::NiPlan::uniform(16, 1, 1)), cfg);
}

std::string switch_case_summary(const SwitchCase& c, std::size_t cycles) {
  auto net = build_switch_case(c);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.3;
  tcfg.seed = 11;
  traffic::TrafficDriver driver(*net, tcfg);
  driver.run(cycles);
  std::ostringstream os;
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(net->kernel().digest()));
  os << "case " << c.name << " cycles " << cycles << " digest " << digest
     << "\n";
  for (std::size_t s = 0; s < net->num_switches(); ++s) {
    const switchlib::Switch& sw = net->switch_at(s);
    os << "  sw" << s << " flits " << sw.flits_switched() << " packets";
    for (const std::uint64_t p : sw.packets_per_output()) os << " " << p;
    os << "\n";
  }
  return os.str();
}

TEST(SwitchGolden, AllocationMatrixIsByteStable) {
  using switchlib::ArbiterKind;
  using link::FlowControl;
  const SwitchCase cases[] = {
      {"mesh_vc1_rr_credit", "mesh", 1, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"mesh_vc1_fixed_acknack", "mesh", 1, ArbiterKind::kFixedPriority,
       FlowControl::kAckNack, 0},
      {"mesh_vc2_rr_credit", "mesh", 2, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"mesh_vc2_fixed_credit", "mesh", 2, ArbiterKind::kFixedPriority,
       FlowControl::kCredit, 0},
      {"mesh_vc4_rr_acknack", "mesh", 4, ArbiterKind::kRoundRobin,
       FlowControl::kAckNack, 0},
      {"mesh_vc4_fixed_credit", "mesh", 4, ArbiterKind::kFixedPriority,
       FlowControl::kCredit, 0},
      {"mesh_vc8_rr_credit", "mesh", 8, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"mesh_vc8_fixed_acknack", "mesh", 8, ArbiterKind::kFixedPriority,
       FlowControl::kAckNack, 0},
      {"mesh_vc1_rr_pipe3", "mesh", 1, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 3},
      {"mesh_vc2_fixed_pipe2", "mesh", 2, ArbiterKind::kFixedPriority,
       FlowControl::kAckNack, 2},
      {"torus_vc2_dateline_rr", "torus", 2, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"torus_vc4_dateline_fixed", "torus", 4, ArbiterKind::kFixedPriority,
       FlowControl::kAckNack, 0},
      {"cmesh_c4_vc2_rr", "cmesh", 2, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"cmesh_c4_vc1_fixed", "cmesh", 1, ArbiterKind::kFixedPriority,
       FlowControl::kCredit, 0},
      {"hub_vc8_rr_credit", "hub", 8, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 0},
      {"hub_vc8_fixed_acknack", "hub", 8, ArbiterKind::kFixedPriority,
       FlowControl::kAckNack, 0},
      {"hub_vc8_rr_pipe1", "hub", 8, ArbiterKind::kRoundRobin,
       FlowControl::kCredit, 1},
  };
  std::string bytes;
  for (const SwitchCase& c : cases) bytes += switch_case_summary(c, 1500);
  expect_golden("switch_alloc.txt", bytes);
}

// ---- All-pairs route tables: every (src, dst, ports) the router emits
// on the named generators under each algorithm they support, the paper's
// case study, and random irregular topologies whose chords carry a second
// vc_class (so class-monotone shortest paths have phases to respect).

topology::Topology random_route_topology(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t switches = 3 + rng.next_below(8);
  topology::Topology topo;
  for (std::size_t s = 0; s < switches; ++s) topo.add_switch();
  // A class-0 spanning tree keeps every switch reachable by a
  // class-monotone path; chords take class 0 or 1.
  for (std::uint32_t s = 1; s < switches; ++s) {
    topo.add_duplex(static_cast<std::uint32_t>(rng.next_below(s)), s);
  }
  const std::size_t chords = rng.next_below(6);
  for (std::size_t c = 0; c < chords; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(switches));
    const auto b = static_cast<std::uint32_t>(rng.next_below(switches));
    if (a == b) continue;
    topo.add_duplex(a, b, 0, static_cast<std::uint8_t>(rng.next_below(2)));
  }
  for (std::uint32_t s = 0; s < switches; ++s) {
    topo.attach_initiator(s);
    topo.attach_target(s);
  }
  return topo;
}

std::string route_table_dump(const std::string& name,
                             const topology::Topology& topo,
                             topology::RoutingAlgorithm algorithm) {
  const auto tables = topology::compute_all_routes(topo, algorithm);
  std::ostringstream os;
  os << "case " << name << " " << topology::routing_name(algorithm)
     << " max_hops " << tables.max_hops() << "\n";
  for (std::uint32_t src = 0; src < topo.num_nis(); ++src) {
    for (std::uint32_t dst = 0; dst < topo.num_nis(); ++dst) {
      if (topo.ni(src).initiator == topo.ni(dst).initiator) continue;
      os << "  " << src << " " << dst << ":";
      for (const std::uint8_t port : tables.at(src, dst)) {
        os << " " << static_cast<unsigned>(port);
      }
      os << "\n";
    }
  }
  return os.str();
}

TEST(RoutesGolden, AllPairsTablesAreByteStable) {
  using topology::NiPlan;
  using topology::RoutingAlgorithm;
  const auto mesh = topology::make_mesh(4, 4, NiPlan::uniform(16, 1, 1));
  const auto case_study = topology::make_paper_case_study();
  std::string bytes;
  bytes += route_table_dump("mesh4x4", mesh, RoutingAlgorithm::kXY);
  bytes += route_table_dump("mesh4x4", mesh, RoutingAlgorithm::kShortestPath);
  const auto torus = topology::make_torus(4, 4, NiPlan::uniform(16, 1, 1));
  bytes += route_table_dump("torus4x4", torus,
                            RoutingAlgorithm::kShortestPath);
  // XY never takes a wrap link: only unit grid steps count.
  bytes += route_table_dump("torus4x4", torus, RoutingAlgorithm::kXY);
  bytes += route_table_dump(
      "spidergon8", topology::make_spidergon(8, NiPlan::uniform(8, 1, 1)),
      RoutingAlgorithm::kShortestPath);
  bytes += route_table_dump("cmesh3x3c2", topology::make_cmesh(3, 3, 2),
                            RoutingAlgorithm::kShortestPath);
  bytes += route_table_dump("cmesh3x3c2", topology::make_cmesh(3, 3, 2),
                            RoutingAlgorithm::kXY);
  bytes += route_table_dump(
      "ring6", topology::make_ring(6, NiPlan::uniform(6, 1, 1)),
      RoutingAlgorithm::kUpDown);
  bytes += route_table_dump(
      "star5", topology::make_star(5, NiPlan::uniform(6, 1, 1)),
      RoutingAlgorithm::kUpDown);
  bytes += route_table_dump(
      "tree3", topology::make_binary_tree(3, NiPlan::uniform(7, 1, 1)),
      RoutingAlgorithm::kUpDown);
  bytes += route_table_dump("case_study", case_study, RoutingAlgorithm::kXY);
  bytes += route_table_dump("case_study", case_study,
                            RoutingAlgorithm::kShortestPath);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto topo = random_route_topology(2000 + seed);
    const std::string name = "random" + std::to_string(seed);
    bytes += route_table_dump(name, topo, RoutingAlgorithm::kShortestPath);
    bytes += route_table_dump(name, topo, RoutingAlgorithm::kUpDown);
  }
  expect_golden("routes.txt", bytes);
}

}  // namespace
}  // namespace xpl
