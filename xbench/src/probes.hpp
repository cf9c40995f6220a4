// Isolated component probes: one library component driven alone at a
// workload's configuration, timed per unit of work (the L1 rows of the
// bench ladder).
#pragma once

#include <cstdint>

#include "src/link/flow.hpp"
#include "src/packet/packetizer.hpp"
#include "src/sim/kernel.hpp"

namespace xbench {

struct ProbeConfig {
  xpl::PacketFormat format;  ///< the workload network's packet format
  xpl::link::FlowControl flow = xpl::link::FlowControl::kAckNack;
  std::size_t vcs = 1;
  std::size_t radix = 6;  ///< switch ports (mesh interior: 4 + 2 NIs)
  xpl::sim::Scheduler scheduler = xpl::sim::Scheduler::kGated;
  std::uint32_t min_burst = 1;
  std::uint32_t max_burst = 4;
  double read_fraction = 0.5;
  std::uint64_t seed = 1;
};

struct ProbeResults {
  double commit_ns = 0.0;     ///< sim: write + commit per dirty signal
  double calendar_ns = 0.0;   ///< sim: WakeCalendar schedule + advance
  double switch_flit_ns = 0.0;  ///< switchlib: per flit switched
  double link_hop_ns = 0.0;   ///< link: sender -> wire -> receiver hop
  double ni_txn_ns = 0.0;     ///< ni/packet: packetize + depacketize
};

/// Runs every probe (medians of several trials), ~1 s in total.
ProbeResults run_probes(const ProbeConfig& config);

}  // namespace xbench
