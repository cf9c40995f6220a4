// Synthetic traffic generation.
//
// Drives the Network's OCP master cores with the workloads the paper's
// evaluation implies: uniform random, hotspot (shared memory), fixed
// permutation, and bandwidth-weighted application traffic (the task-graph
// flows of the SunMap step, see appgraph/). A TrafficDriver is stepped
// alongside the kernel and injects transactions at a configurable mean
// rate, either memorylessly (Bernoulli) or in on/off bursts (two-state
// Markov modulation — see TrafficConfig::burstiness). The workload layer
// (src/workload/) builds app-benchmark scenarios on top, and its trace
// replay runs on the same injection engine (Driver).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/noc/network.hpp"

namespace xpl::traffic {

enum class Pattern : std::uint8_t {
  kUniformRandom,  ///< every target equally likely
  kHotspot,        ///< one target attracts `hotspot_fraction` of traffic
  kPermutation,    ///< initiator i always talks to target i mod T
  kWeighted,       ///< per-pair weights (application flows)
};

const char* pattern_name(Pattern pattern);

struct TrafficConfig {
  Pattern pattern = Pattern::kUniformRandom;
  /// Mean offered load: expected transactions per cycle per initiator,
  /// in [0, 1]. With burstiness == 0 this is a per-cycle Bernoulli coin;
  /// with burstiness > 0 the same mean is delivered in on/off bursts.
  double injection_rate = 0.05;
  /// Probability in [0, 1] that an injected transaction is a read; the
  /// rest are posted writes (no response, excluded from latency stats).
  double read_fraction = 0.5;
  /// Burst length is uniform in [min_burst, max_burst] beats (one beat =
  /// one OCP data word). Must satisfy 1 <= min <= max <= the network's
  /// max_burst.
  std::uint32_t min_burst = 1;
  std::uint32_t max_burst = 4;
  /// kHotspot: index of the target that attracts `hotspot_fraction` in
  /// [0, 1] of the traffic; the remainder is uniform over all targets.
  std::uint32_t hotspot_target = 0;
  double hotspot_fraction = 0.5;
  /// kWeighted: weight[i][t] — relative traffic from initiator i to
  /// target t (rows may be any non-negative values, zero row = silent).
  std::vector<std::vector<double>> weights;
  /// Temporal burstiness in [0, 1): the OFF-duty fraction of a two-state
  /// Markov (on/off) modulation of the injection process. 0 is the
  /// memoryless Bernoulli process. At burstiness b each initiator is ON
  /// a fraction (1-b) of the time and injects at rate
  /// injection_rate/(1-b) while ON, so the mean rate is preserved while
  /// variance grows — the bursty MPEG-style arrivals of DESIGN.md §5.
  /// Rates above the ON-duty fraction saturate (peak rate clamps at 1).
  double burstiness = 0.0;
  /// Mean ON-dwell in cycles (geometric) when burstiness > 0; the mean
  /// OFF-dwell follows from the duty cycle: avg_burst_cycles * b/(1-b).
  double avg_burst_cycles = 10.0;
  /// Seeds the driver's private xoshiro256** stream (independent of the
  /// network's seed, which drives link error injection).
  std::uint64_t seed = 42;
};

/// The one injection engine. TrafficDriver and workload::TraceDriver
/// derive from it and supply only how one *source cycle* rolls; the
/// engine decides when each source cycle rolls and at which kernel cycle
/// its injections are released. Source cycles count the rolls, one per
/// kernel cycle the driver steps or runs, so a source's clock pauses
/// while the kernel runs without it.
///
/// On an unpartitioned time-leap kernel the engine registers an injector
/// module so run() can hand the whole span to Kernel::run: the injector
/// rolls ahead through silent cycles until a roll injects, sleeps until
/// the cycle before the next unrolled one, and the kernel leaps the gap.
/// Every other kernel pre-rolls each lookahead epoch instead. Either
/// way the release gate in MasterCore keeps the issue schedule bit-exact
/// (DESIGN.md §9, §10).
class Driver {
 public:
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Rolls the next source cycle, released at the current kernel cycle.
  void step();

  /// Steps the driver and the network together. On a partitioned or
  /// full-scheduler kernel each lookahead epoch's injections are
  /// pre-rolled (released at their exact cycles via push_transaction_at),
  /// so the roll order and the issue schedule match the per-cycle loop
  /// at any partition/thread count.
  void run(std::size_t cycles);

  std::uint64_t injected() const { return injected_; }

 protected:
  explicit Driver(noc::Network& network);
  ~Driver() = default;

  /// Rolls source cycle `cycle`, pushing its injections for release at
  /// kernel cycle `release` and counting them in injected_. Returns how
  /// many of the following source cycles are silent — they would inject
  /// nothing and change no state, so the engine passes over them without
  /// a call (sim::kNever: all of them).
  virtual std::uint64_t roll_cycle(std::uint64_t cycle,
                                   std::uint64_t release) = 0;

  /// The next source cycle to roll.
  std::uint64_t source_cycle() const { return source_cycle_; }

  noc::Network& network_;
  std::uint64_t injected_ = 0;

 private:
  /// Schedulable face of the engine (time-leap runs only): ticks after
  /// every network module, rolling far enough ahead that any
  /// transaction released at cycle c is queued before c begins. Inert
  /// (next_event() == kNever) outside run().
  class Injector : public sim::Module {
   public:
    explicit Injector(Driver& owner)
        : sim::Module("traffic.injector"), owner_(owner) {}
    void tick(sim::Kernel& kernel) override {
      owner_.injector_tick(kernel.cycle());
    }
    std::uint64_t next_event(std::uint64_t now) const override {
      return owner_.injector_next_event(now);
    }

   private:
    Driver& owner_;
  };

  /// Rolls the next source cycle at `release`, or passes over it when it
  /// is known to be silent.
  void roll_next(std::uint64_t release);
  /// Rolls source cycles from the bookmark through kernel cycle
  /// `through`, never reaching the horizon, passing over silent stretches
  /// in O(1). With `ahead`, keeps rolling until a roll past `through`
  /// injects, so the injector may sleep through the cycles in between.
  void roll_through(std::uint64_t through, bool ahead);
  void injector_tick(std::uint64_t now);
  std::uint64_t injector_next_event(std::uint64_t now) const;

  Injector injector_{*this};
  bool use_injector_ = false;       ///< unpartitioned time-leap kernel
  bool active_ = false;             ///< inside run()
  std::uint64_t source_cycle_ = 0;  ///< next source cycle to roll
  std::uint64_t silent_ = 0;        ///< known-silent cycles from there
  std::uint64_t rolled_next_ = 0;   ///< first kernel cycle not yet rolled
  std::uint64_t horizon_ = 0;       ///< first kernel cycle past the run
};

/// Injects transactions into every master of `network`: each source
/// cycle rolls the injection process of every initiator (RNG draws in
/// initiator order), so no cycle is ever silent.
class TrafficDriver final : public Driver {
 public:
  TrafficDriver(noc::Network& network, const TrafficConfig& config);

 private:
  std::uint64_t roll_cycle(std::uint64_t cycle,
                           std::uint64_t release) override;
  std::size_t pick_target(std::size_t initiator);
  /// Rolls the on/off Markov chain and the injection coin for one
  /// initiator-cycle; true when a transaction should be injected.
  bool roll_injection(std::size_t initiator);

  TrafficConfig config_;
  Rng rng_;
  /// Prefix sums per initiator for kWeighted.
  std::vector<std::vector<double>> cumulative_;
  /// Per-initiator ON/OFF state (burstiness > 0 only).
  std::vector<bool> burst_on_;
  double peak_rate_ = 0.0;   ///< injection probability while ON
  double p_on_to_off_ = 0.0;
  double p_off_to_on_ = 0.0;
};

}  // namespace xpl::traffic
