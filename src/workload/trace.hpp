// Transaction traces: record, persist, replay.
//
// The workload layer's third scenario source (after synthetic patterns and
// app benchmarks): capture the exact transaction stream a live run injects
// and replay it, cycle for cycle, against any compatible network. The file
// format is line-oriented and comment-friendly like the NoC and `.sweep`
// spec formats (docs/FORMATS.md is the reference) and round-trips exactly:
// write_trace(parse_trace(text)) is canonical.
//
//   # xpipes lite transaction trace
//   trace mpeg4_burst
//   initiators 12
//   targets 12
//   0 3 5 read 64 2 1
//   0 7 5 write 128 4 0
//   12 3 5 writenp 64 1 3
//
// Header directives come first; every remaining line is one transaction,
//   <cycle> <initiator> <target> <read|write|writenp> <offset> <burst>
//   [thread]
// sorted by non-decreasing cycle (the trailing OCP thread id defaults to
// 0). Numbers are plain decimal digits (src/common/line_format.hpp), and
// a header-less body is a trace of unconstrained shape.
//
// Determinism contract (DESIGN.md §5): a trace pins every scheduling
// decision — injection cycle, source, destination, command, burst length.
// TraceDriver regenerates write payloads as a pure function of the entry
// index, so a replay involves no RNG at all: replaying the same trace on
// the same network config yields bit-identical RunStats no matter what
// seeds the surrounding campaign uses, and re-recording a replay
// reproduces the trace byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/noc/network.hpp"
#include "src/ocp/ocp.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::workload {

/// One scheduled transaction of a trace.
struct TraceEntry {
  std::uint64_t cycle = 0;      ///< injection cycle (non-decreasing)
  std::uint32_t initiator = 0;  ///< initiator index
  std::uint32_t target = 0;     ///< target index
  ocp::Cmd cmd = ocp::Cmd::kRead;
  std::uint64_t addr_offset = 0;  ///< within the target's window
  std::uint32_t burst = 1;
  /// OCP thread id. Part of the schedule: responses match per thread, so
  /// replay timing is only faithful if the trace pins it.
  std::uint32_t thread = 0;
};

/// Trace-body command mnemonic ("read" | "write" | "writenp"). Throws on
/// Cmd::kIdle.
const char* trace_cmd_name(ocp::Cmd cmd);

/// A named, replayable transaction stream plus the shape of the network
/// it was captured on (used to validate compatibility before replay).
struct Trace {
  std::string name = "trace";
  std::uint32_t initiators = 0;  ///< master cores the trace addresses
  std::uint32_t targets = 0;     ///< slave cores the trace addresses
  std::vector<TraceEntry> entries;
};

/// Parses the trace format above; throws xpl::Error with a line number on
/// malformed input (unknown directive, out-of-order cycles, bad command).
Trace parse_trace(const std::string& text);

/// Reads and parses a trace file.
Trace load_trace(const std::string& path);

/// Renders `trace` in canonical form: banner comment, fixed directive
/// order, one entry per line. parse_trace(write_trace(t)) == t.
std::string write_trace(const Trace& trace);

/// Writes the canonical form to `path`.
void save_trace(const Trace& trace, const std::string& path);

/// Captures every transaction pushed into `network`'s master cores while
/// alive (it taps ocp::MasterCore::on_push on all of them; the taps are
/// removed on destruction). Entries carry the kernel cycle at push time,
/// so recording a TrafficDriver/TraceDriver run reproduces the driver's
/// schedule exactly. One recorder per network at a time.
class TraceRecorder {
 public:
  explicit TraceRecorder(noc::Network& network, std::string name = "trace");
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const Trace& trace() const { return trace_; }
  std::size_t recorded() const { return trace_.entries.size(); }

 private:
  noc::Network& network_;
  Trace trace_;
};

/// Replays a trace against a compatible network on the traffic::Driver
/// injection engine: step() once per cycle alongside the kernel, or
/// run() spans, like traffic::TrafficDriver. Source cycle c injects the
/// entries scheduled at cycle c, and the gaps between entries are silent,
/// so run() leaps a sparse trace's gaps whole. Compatibility (header
/// initiator/target counts; per entry the initiator, target and thread
/// ranges, the burst limit and the target window) is validated at
/// construction. Write payloads are a pure function of the entry index —
/// no RNG, no seed — so replays are deterministic by construction.
class TraceDriver final : public traffic::Driver {
 public:
  TraceDriver(noc::Network& network, Trace trace);

  /// Runs until the whole trace is injected, then drains the network
  /// (run_until_quiescent). Returns total cycles stepped.
  std::uint64_t replay(std::uint64_t max_drain_cycles = 100000);

  /// True when every entry has been injected.
  bool done() const { return injected() == entries_.size(); }
  const std::string& name() const { return name_; }

 private:
  std::uint64_t roll_cycle(std::uint64_t cycle,
                           std::uint64_t release) override;

  std::string name_;
  std::vector<TraceEntry> entries_;
};

}  // namespace xpl::workload
