#include "src/workload/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/line_format.hpp"

namespace xpl::workload {

namespace {

constexpr std::string_view kFormat = "trace";

std::uint32_t parse_u32(const std::string& token, std::size_t line) {
  const std::uint64_t value = parse_u64(token, kFormat, line);
  if (value > 0xFFFFFFFFull) {
    throw_line_error(kFormat, line, "number '" + token + "' too large");
  }
  return static_cast<std::uint32_t>(value);
}

ocp::Cmd parse_cmd(const std::string& token, std::size_t line) {
  for (const ocp::Cmd cmd :
       {ocp::Cmd::kRead, ocp::Cmd::kWrite, ocp::Cmd::kWriteNp}) {
    if (token == trace_cmd_name(cmd)) return cmd;
  }
  throw_line_error(kFormat, line, "unknown command '" + token + "'");
}

/// Replay write payload for beat `beat` of entry `index`: a splitmix64
/// finalizer over the pair, so payloads are reproducible from the trace
/// alone — no RNG state, no seed.
std::uint64_t payload_word(std::uint64_t index, std::uint32_t beat) {
  std::uint64_t z = (index << 20) + beat + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* trace_cmd_name(ocp::Cmd cmd) {
  switch (cmd) {
    case ocp::Cmd::kRead:
      return "read";
    case ocp::Cmd::kWrite:
      return "write";
    case ocp::Cmd::kWriteNp:
      return "writenp";
    case ocp::Cmd::kIdle:
      break;
  }
  throw Error("trace_cmd_name: kIdle has no trace mnemonic");
}

Trace parse_trace(const std::string& text) {
  Trace trace;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::vector<std::string> tok = tokenize_line(line);
    if (tok.empty()) continue;  // blank / comment-only
    // Directive lines start with a keyword; entry lines with a number.
    const std::string& key = tok[0];
    if (key == "trace" || key == "initiators" || key == "targets") {
      if (!trace.entries.empty()) {
        throw_line_error(kFormat, lineno,
                         "'" + key + "' directive after the first entry");
      }
      if (tok.size() != 2) {
        throw_line_error(kFormat, lineno,
                         "'" + key + "' expects exactly one argument");
      }
      if (key == "trace") {
        trace.name = tok[1];
      } else if (key == "initiators") {
        trace.initiators = parse_u32(tok[1], lineno);
      } else {
        trace.targets = parse_u32(tok[1], lineno);
      }
      continue;
    }
    // Entry lines start with a cycle number; any other keyword is a
    // typo'd directive, which must not be skipped silently (a dropped
    // `initiators` line would disable the replay shape check).
    if (key.find_first_not_of("0123456789") != std::string::npos) {
      throw_line_error(kFormat, lineno, "unknown directive '" + key + "'");
    }
    if (tok.size() < 6) {
      throw_line_error(kFormat, lineno,
                       "expected <cycle> <ini> <tgt> <cmd> <offset> <burst>");
    }
    // The optional trailing thread id is part of the schedule: responses
    // match per thread, so a stray token must not pass silently.
    if (tok.size() > 7) {
      throw_line_error(kFormat, lineno,
                       "unexpected trailing token '" + tok[7] + "'");
    }
    TraceEntry entry;
    entry.cycle = parse_u64(tok[0], kFormat, lineno);
    entry.initiator = parse_u32(tok[1], lineno);
    entry.target = parse_u32(tok[2], lineno);
    entry.cmd = parse_cmd(tok[3], lineno);
    entry.addr_offset = parse_u64(tok[4], kFormat, lineno);
    entry.burst = parse_u32(tok[5], lineno);
    if (tok.size() == 7) entry.thread = parse_u32(tok[6], lineno);
    if (entry.burst == 0) {
      throw_line_error(kFormat, lineno, "burst must be >= 1");
    }
    if (!trace.entries.empty() && entry.cycle < trace.entries.back().cycle) {
      throw_line_error(kFormat, lineno, "cycles must be non-decreasing");
    }
    if (trace.initiators != 0 && entry.initiator >= trace.initiators) {
      throw_line_error(kFormat, lineno,
                       "initiator index exceeds the 'initiators' count");
    }
    if (trace.targets != 0 && entry.target >= trace.targets) {
      throw_line_error(kFormat, lineno,
                       "target index exceeds the 'targets' count");
    }
    trace.entries.push_back(entry);
  }
  return trace;
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "workload::load_trace: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace(text.str());
}

std::string write_trace(const Trace& trace) {
  // A name with whitespace or a leading '#' would not survive the
  // line-oriented reload (extra tokens / a comment), breaking the
  // round-trip guarantee — reject it here rather than emit a corrupt
  // file.
  require(!trace.name.empty() && trace.name[0] != '#' &&
              trace.name.find_first_of(" \t") == std::string::npos,
          "write_trace: trace name must be one token not starting with "
          "'#', got '" + trace.name + "'");
  std::ostringstream os;
  os << "# xpipes lite transaction trace\n";
  os << "trace " << trace.name << "\n";
  os << "initiators " << trace.initiators << "\n";
  os << "targets " << trace.targets << "\n";
  for (const TraceEntry& e : trace.entries) {
    os << e.cycle << " " << e.initiator << " " << e.target << " "
       << trace_cmd_name(e.cmd) << " " << e.addr_offset << " "
       << e.burst << " " << e.thread << "\n";
  }
  return os.str();
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_trace: cannot open " + path);
  out << write_trace(trace);
}

TraceRecorder::TraceRecorder(noc::Network& network, std::string name)
    : network_(network) {
  trace_.name = std::move(name);
  trace_.initiators = static_cast<std::uint32_t>(network.num_initiators());
  trace_.targets = static_cast<std::uint32_t>(network.num_targets());
  const std::uint64_t window = network.config().target_window;
  for (std::size_t i = 0; i < network.num_initiators(); ++i) {
    // Enforce the one-recorder-per-network rule: clobbering a live tap
    // would silently truncate the other recorder's trace.
    require(!network.master(i).on_push,
            "TraceRecorder: master already has a push tap installed");
    network.master(i).on_push = [this, i, window](
                                    const ocp::Transaction& txn,
                                    std::uint64_t release) {
      TraceEntry entry;
      // Plain pushes carry release 0 and are issuable now; pre-rolled
      // epoch pushes carry release >= the current (epoch-base) cycle.
      // Either way the max is the cycle the schedule actually injects.
      entry.cycle = std::max(release, network_.kernel().cycle());
      entry.initiator = static_cast<std::uint32_t>(i);
      entry.target = static_cast<std::uint32_t>(txn.addr / window);
      entry.cmd = txn.cmd;
      entry.addr_offset = txn.addr % window;
      entry.burst = txn.burst_len;
      entry.thread = txn.thread_id;
      XPL_ASSERT(trace_.entries.empty() ||
                 entry.cycle >= trace_.entries.back().cycle);
      trace_.entries.push_back(entry);
    };
  }
}

TraceRecorder::~TraceRecorder() {
  for (std::size_t i = 0; i < network_.num_initiators(); ++i) {
    network_.master(i).on_push = nullptr;
  }
}

TraceDriver::TraceDriver(noc::Network& network, Trace trace)
    : Driver(network),
      name_(std::move(trace.name)),
      entries_(std::move(trace.entries)) {
  if (trace.initiators != 0) {
    require(trace.initiators == network.num_initiators(),
            "TraceDriver: trace expects " +
                std::to_string(trace.initiators) + " initiators, network "
                "has " + std::to_string(network.num_initiators()));
  }
  if (trace.targets != 0) {
    require(trace.targets == network.num_targets(),
            "TraceDriver: trace expects " + std::to_string(trace.targets) +
                " targets, network has " +
                std::to_string(network.num_targets()));
  }
  const std::uint64_t window = network.config().target_window;
  for (const TraceEntry& entry : entries_) {
    require(entry.initiator < network.num_initiators(),
            "TraceDriver: initiator index out of range");
    require(entry.target < network.num_targets(),
            "TraceDriver: target index out of range");
    require(entry.burst <= network.config().max_burst,
            "TraceDriver: burst exceeds network max_burst");
    require(entry.thread < network.config().num_threads,
            "TraceDriver: thread id exceeds network num_threads");
    // A burst past the window would address the next target's window,
    // and TraceRecorder would re-record it under that target.
    require(entry.addr_offset <= window &&
                8ull * entry.burst <= window - entry.addr_offset,
            "TraceDriver: entry runs past its target's window");
  }
}

std::uint64_t TraceDriver::roll_cycle(std::uint64_t cycle,
                                      std::uint64_t release) {
  for (; injected_ < entries_.size() && entries_[injected_].cycle <= cycle;
       ++injected_) {
    const TraceEntry& entry = entries_[injected_];
    ocp::Transaction txn;
    txn.cmd = entry.cmd;
    txn.addr = network_.target_base(entry.target) + entry.addr_offset;
    txn.burst_len = entry.burst;
    txn.thread_id = entry.thread;
    if (entry.cmd != ocp::Cmd::kRead) {
      txn.data.reserve(entry.burst);
      for (std::uint32_t b = 0; b < entry.burst; ++b) {
        txn.data.push_back(payload_word(injected_, b));
      }
    }
    network_.master(entry.initiator)
        .push_transaction_at(std::move(txn), release);
  }
  if (done()) return sim::kNever;
  return entries_[injected_].cycle - cycle - 1;  // cycles until the next
}

std::uint64_t TraceDriver::replay(std::uint64_t max_drain_cycles) {
  const std::uint64_t cycles =
      done() ? 0 : entries_.back().cycle + 1 - source_cycle();
  run(cycles);
  return cycles + network_.run_until_quiescent(max_drain_cycles);
}

}  // namespace xpl::workload
