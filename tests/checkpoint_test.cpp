// Resumable campaigns: checkpoint format round-trip (hexfloat exactness),
// interrupted-then-resumed campaigns producing byte-identical exports at
// any cursor position and job count, and malformed-sidecar rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/error.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {
namespace {

/// Small but non-trivial campaign: 6 points, two fifo depths, one of the
/// rates high enough to produce interesting (non-round) float metrics.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "ckpt_scan";
  spec.seed = 7;
  spec.sim_cycles = 200;
  spec.drain_cycles = 4000;
  spec.widths = {2};
  spec.heights = {2};
  spec.fifo_depths = {2, 4};
  spec.injection_rates = {0.01, 0.05, 0.1};
  return spec;
}

TEST(Checkpoint, FormatRoundTripsExactly) {
  const SweepSpec spec = tiny_spec();
  const SweepRunner runner(1);
  const ResultTable table = runner.run(spec);

  Checkpoint ckpt = make_checkpoint(spec, table);
  EXPECT_EQ(ckpt.results.size(), spec.num_points());

  const std::string text = write_checkpoint(ckpt);
  // tiny_spec keeps the default `scheduler gated`, the legacy spelling of
  // time_leap that every sidecar written before the fold carries.
  EXPECT_NE(text.find("scheduler gated\n"), std::string::npos);
  Checkpoint reparsed = parse_checkpoint(text);
  // Canonical: serializing the parsed form reproduces the bytes.
  EXPECT_EQ(write_checkpoint(reparsed), text);

  const SweepSpec restored = checkpoint_spec(reparsed);
  EXPECT_EQ(restored.num_points(), spec.num_points());
  for (std::size_t i = 0; i < restored.num_points(); ++i) {
    EXPECT_EQ(restored.point(i).net.scheduler, sim::Scheduler::kTimeLeap);
  }
  ASSERT_EQ(reparsed.results.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const SweepResult& a = table.row(i);
    const SweepResult& b = reparsed.results[i];
    EXPECT_EQ(b.point.index, i);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_TRUE(b.evaluated);
    EXPECT_EQ(a.transactions, b.transactions);
    // Hexfloat storage: bit-exact doubles, not merely close.
    EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
    EXPECT_EQ(a.p95_latency_cycles, b.p95_latency_cycles);
    EXPECT_EQ(a.throughput_tpc, b.throughput_tpc);
    EXPECT_EQ(a.avg_link_utilization, b.avg_link_utilization);
    EXPECT_EQ(a.area_mm2, b.area_mm2);
    EXPECT_EQ(a.power_mw, b.power_mw);
    EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
    // Rebinding restored the full point (seeds included).
    EXPECT_EQ(a.point.net.seed, b.point.net.seed);
    EXPECT_EQ(a.point.traffic.injection_rate, b.point.traffic.injection_rate);
  }
}

TEST(Checkpoint, ErrorStringsSurviveEscaping) {
  SweepResult r;
  r.point.index = 0;
  r.evaluated = true;
  r.error = "line one\nline \\ two, with spaces";
  Checkpoint ckpt;
  ckpt.spec_text = write_sweep(tiny_spec());
  ckpt.num_points = 6;
  ckpt.results.push_back(r);
  const Checkpoint reparsed = parse_checkpoint(write_checkpoint(ckpt));
  ASSERT_EQ(reparsed.results.size(), 1u);
  EXPECT_EQ(reparsed.results[0].error, r.error);
}

/// Interrupt at `cut` completed points, resume with `resume_jobs` workers,
/// and require the finished exports byte-identical to `ref_csv`/`ref_json`.
void check_resume(const SweepSpec& spec, std::size_t cut,
                  std::size_t resume_jobs, const std::string& ref_csv,
                  const std::string& ref_json) {
  // Phase 1: run with halt_after = cut, checkpointing every result — the
  // library-level equivalent of killing xsweep mid-campaign.
  Checkpoint saved;
  {
    const SweepRunner runner(1);  // jobs 1: halt lands exactly at `cut`
    RunOptions opts;
    opts.halt_after = cut;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    const ResultTable partial = runner.run(spec, opts);
    std::size_t evaluated = 0;
    for (const auto& r : partial.rows()) evaluated += r.evaluated ? 1 : 0;
    ASSERT_EQ(evaluated, cut);
  }
  // Round-trip the sidecar through its text form, as a real resume would.
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  const SweepSpec restored = checkpoint_spec(reloaded);
  ASSERT_EQ(reloaded.results.size(), cut);

  // Phase 2: resume and finish.
  const SweepRunner runner(resume_jobs);
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = runner.run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv) << "cut=" << cut;
  EXPECT_EQ(table.to_json(), ref_json) << "cut=" << cut;
}

TEST(Checkpoint, ResumeIsByteIdenticalAtEveryCursorAndJobCount) {
  const SweepSpec spec = tiny_spec();
  const ResultTable reference = SweepRunner(1).run(spec);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();
  // Also pin that parallel uninterrupted runs match the serial reference.
  EXPECT_EQ(SweepRunner(8).run(spec).to_csv(), ref_csv);

  for (const std::size_t cut : {std::size_t{1}, std::size_t{3},
                                std::size_t{5}}) {
    check_resume(spec, cut, 1, ref_csv, ref_json);
    check_resume(spec, cut, 8, ref_csv, ref_json);
  }
}

TEST(Checkpoint, ResumeIsByteIdenticalAcrossSimThreadCounts) {
  // A campaign interrupted on one machine and resumed with a different
  // per-point thread count (xsweep --sim-threads) must finish with the
  // same bytes: threads/partitions are throughput knobs, not axes.
  const SweepSpec spec = tiny_spec();
  const ResultTable reference = SweepRunner(1).run(spec);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();

  Checkpoint saved;
  {
    const SweepRunner runner(1);
    RunOptions opts;
    opts.halt_after = 3;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    runner.run(spec, opts);
  }
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  ASSERT_EQ(reloaded.results.size(), 3u);

  // Resume leg simulates partitioned points — as if the user passed
  // --sim-threads 2 on the second machine.
  SweepSpec restored = checkpoint_spec(reloaded);
  restored.threads = 2;
  restored.partitions = 2;
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = SweepRunner(2).run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv);
  EXPECT_EQ(table.to_json(), ref_json);
}

TEST(Checkpoint, ResumeIsByteIdenticalAcrossSchedulerChoice) {
  // A resume may land on a different scheduler — xsweep --resume
  // --ungated switches to the full oracle — and must still finish with
  // the same bytes: schedulers are throughput knobs, never axes.
  SweepSpec full = tiny_spec();
  full.scheduler = "full";
  const ResultTable reference = SweepRunner(1).run(full);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();

  // The default campaign (time-leap) exports the same bytes.
  const SweepSpec spec = tiny_spec();
  const ResultTable leap_table = SweepRunner(1).run(spec);
  EXPECT_EQ(leap_table.to_csv(), ref_csv);
  EXPECT_EQ(leap_table.to_json(), ref_json);

  // Interrupt under time-leap, resume under the full oracle.
  Checkpoint saved;
  {
    const SweepRunner runner(1);
    RunOptions opts;
    opts.halt_after = 3;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    runner.run(spec, opts);
  }
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  ASSERT_EQ(reloaded.results.size(), 3u);
  SweepSpec restored = checkpoint_spec(reloaded);
  restored.scheduler = "full";
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = SweepRunner(1).run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv);
  EXPECT_EQ(table.to_json(), ref_json);
}

TEST(Checkpoint, SaveIsAtomicAndLoadable) {
  const SweepSpec spec = tiny_spec();
  const ResultTable table = SweepRunner(1).run(spec);
  const Checkpoint ckpt = make_checkpoint(spec, table);

  const std::string path =
      testing::TempDir() + "/checkpoint_test_atomic.ckpt";
  save_checkpoint(ckpt, path);
  // The temp file must be gone after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(write_checkpoint(loaded), write_checkpoint(ckpt));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMalformedSidecars) {
  const std::string spec_text = write_sweep(tiny_spec());
  const std::string header =
      "checkpoint 1\nspec_begin\n" + spec_text + "spec_end\npoints 6\n";

  // Unsupported version.
  EXPECT_THROW(parse_checkpoint("checkpoint 2\n"), Error);
  // Missing pieces.
  EXPECT_THROW(parse_checkpoint(""), Error);
  EXPECT_THROW(parse_checkpoint("checkpoint 1\n"), Error);
  EXPECT_THROW(parse_checkpoint("spec_begin\n" + spec_text + "spec_end\n"),
               Error);
  // Truncated spec block.
  EXPECT_THROW(parse_checkpoint("checkpoint 1\nspec_begin\nsweep x\n"),
               Error);
  // Bad result rows: truncated, index out of range, bad float, duplicate.
  EXPECT_THROW(parse_checkpoint(header + "result 0 1 5\n"), Error);
  const std::string row =
      " 1 10 20 0 0 0x1p+3 0x1p+4 0x1p-5 0x1p-6 0x1p-7 0x1p-8 0x1p+9\n";
  EXPECT_THROW(parse_checkpoint(header + "result 6" + row), Error);
  EXPECT_THROW(
      parse_checkpoint(header +
                       "result 0 1 10 20 0 0 nope 0x1p+4 0x1p-5 0x1p-6 "
                       "0x1p-7 0x1p-8 0x1p+9\n"),
      Error);
  EXPECT_THROW(
      parse_checkpoint(header + "result 0" + row + "result 0" + row), Error);
  // Unknown directive.
  EXPECT_THROW(parse_checkpoint(header + "bogus 1\n"), Error);
  // result before the points line.
  EXPECT_THROW(
      parse_checkpoint("checkpoint 1\nspec_begin\n" + spec_text +
                       "spec_end\nresult 0" + row),
      Error);

  // Errors carry the offending line number (the bad row is the first
  // line after the header block).
  const std::size_t bad_line =
      static_cast<std::size_t>(
          std::count(header.begin(), header.end(), '\n')) +
      1;
  try {
    parse_checkpoint(header + "result 0 1 5\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint line " +
                                         std::to_string(bad_line)),
              std::string::npos)
        << e.what();
  }

  // checkpoint_spec cross-checks: non-canonical spec, point-count drift.
  {
    Checkpoint ckpt;
    ckpt.spec_text = "sweep renamed\n";  // parses, but not canonical
    ckpt.num_points = 6;
    EXPECT_THROW(checkpoint_spec(ckpt), Error);
  }
  {
    Checkpoint ckpt;
    ckpt.spec_text = spec_text;
    ckpt.num_points = 5;  // spec resolves to 6
    EXPECT_THROW(checkpoint_spec(ckpt), Error);
  }
}

}  // namespace
}  // namespace xpl::sweep
