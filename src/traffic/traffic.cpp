#include "src/traffic/traffic.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace xpl::traffic {

const char* pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::kUniformRandom:
      return "uniform";
    case Pattern::kHotspot:
      return "hotspot";
    case Pattern::kPermutation:
      return "permutation";
    case Pattern::kWeighted:
      return "weighted";
  }
  return "?";
}

Driver::Driver(noc::Network& network) : network_(network) {
  sim::Kernel& kernel = network.kernel();
  use_injector_ = !kernel.partitioned() &&
                  kernel.scheduler() == sim::Scheduler::kTimeLeap;
  if (use_injector_) kernel.add_module(injector_);
}

void Driver::roll_next(std::uint64_t release) {
  if (silent_ > 0) {
    --silent_;
    ++source_cycle_;
    return;
  }
  silent_ = roll_cycle(source_cycle_++, release);
}

void Driver::roll_through(std::uint64_t through, bool ahead) {
  while (rolled_next_ < horizon_ && (ahead || rolled_next_ <= through)) {
    if (silent_ > 0) {
      const std::uint64_t skip = std::min(silent_, horizon_ - rolled_next_);
      silent_ -= skip;
      source_cycle_ += skip;
      rolled_next_ += skip;
      continue;
    }
    const std::uint64_t before = injected_;
    silent_ = roll_cycle(source_cycle_++, rolled_next_++);
    if (ahead && rolled_next_ > through && injected_ != before) break;
  }
}

void Driver::step() {
  const std::uint64_t now = network_.kernel().cycle();
  roll_next(now);
  // Keep the injector's bookmark coherent when step() and run() mix.
  rolled_next_ = std::max(rolled_next_, now + 1);
}

void Driver::injector_tick(std::uint64_t now) {
  if (!active_) return;
  // Mandatory: cycle now + 1 must be rolled before its masters tick.
  // Past that, keep rolling until a roll injects so next_event() can
  // name the cycle before the next unrolled one — the kernel leaps the
  // gap. Roll order is cycle order either way; the release gate in
  // MasterCore makes early queuing unobservable.
  roll_through(now + 1, /*ahead=*/true);
}

std::uint64_t Driver::injector_next_event(std::uint64_t now) const {
  if (!active_ || rolled_next_ >= horizon_) return sim::kNever;
  return std::max(now + 1, rolled_next_ - 1);
}

void Driver::run(std::size_t cycles) {
  if (use_injector_) {
    const std::uint64_t base = network_.kernel().cycle();
    rolled_next_ = std::max(rolled_next_, base);
    horizon_ = base + cycles;
    // Injections released at `base` itself must be queued before the run
    // starts: the masters tick before the injector within a cycle.
    roll_through(base, /*ahead=*/false);
    active_ = true;
    injector_.wake();
    network_.step(cycles);
    active_ = false;
    // Safety net: a run cut short of the injector's last wake (never in
    // normal operation) still leaves the source's state and clock
    // matching the per-cycle schedule.
    roll_through(horizon_, /*ahead=*/false);
    return;
  }
  // Epoch batching: pre-roll the injections for the whole conservative
  // window (roll order is cycle order, as in the per-cycle schedule),
  // then let the kernel run the epoch.
  const std::size_t k =
      std::max<std::size_t>(1, network_.kernel().lookahead());
  std::size_t done = 0;
  while (done < cycles) {
    const std::size_t n = std::min(k, cycles - done);
    const std::uint64_t base = network_.kernel().cycle();
    for (std::size_t j = 0; j < n; ++j) roll_next(base + j);
    network_.step(n);
    done += n;
  }
}

TrafficDriver::TrafficDriver(noc::Network& network,
                             const TrafficConfig& config)
    : Driver(network), config_(config), rng_(config.seed) {
  require(network.num_targets() > 0, "TrafficDriver: no targets");
  require(config.min_burst >= 1 && config.min_burst <= config.max_burst,
          "TrafficDriver: bad burst range");
  require(config.max_burst <= network.config().max_burst,
          "TrafficDriver: burst exceeds network max_burst");
  // Even the shortest burst must fit a target's address window (8 bytes
  // per beat), or every injected transaction would spill past the window
  // into the next target's address space.
  require(8ull * config.min_burst <= network.config().target_window,
          "TrafficDriver: min_burst does not fit the target window");
  if (config.pattern == Pattern::kWeighted) {
    require(config.weights.size() == network.num_initiators(),
            "TrafficDriver: weights rows must match initiators");
    cumulative_.resize(config.weights.size());
    for (std::size_t i = 0; i < config.weights.size(); ++i) {
      require(config.weights[i].size() == network.num_targets(),
              "TrafficDriver: weights cols must match targets");
      double sum = 0;
      for (double w : config.weights[i]) {
        require(w >= 0, "TrafficDriver: negative weight");
        sum += w;
        cumulative_[i].push_back(sum);
      }
    }
  }
  if (config.pattern == Pattern::kHotspot) {
    require(config.hotspot_target < network.num_targets(),
            "TrafficDriver: hotspot target out of range");
  }
  require(config.burstiness >= 0.0 && config.burstiness < 1.0,
          "TrafficDriver: burstiness must be in [0, 1)");
  if (config.burstiness > 0.0) {
    require(config.avg_burst_cycles >= 1.0,
            "TrafficDriver: avg_burst_cycles must be >= 1");
    const double duty = 1.0 - config.burstiness;
    p_on_to_off_ = 1.0 / config.avg_burst_cycles;
    // Mean OFF dwell avg_burst_cycles * b/(1-b) puts the stationary ON
    // fraction at `duty`. A per-cycle chain cannot dwell OFF for less
    // than one expected cycle, so for very small b the exit probability
    // clamps at 1; the peak rate below compensates from the *achieved*
    // ON fraction, keeping the mean rate exact either way.
    p_off_to_on_ =
        std::min(1.0, duty / (config.burstiness * config.avg_burst_cycles));
    const double on_fraction =
        p_off_to_on_ / (p_off_to_on_ + p_on_to_off_);
    peak_rate_ = std::min(1.0, config.injection_rate / on_fraction);
    burst_on_.resize(network.num_initiators());
    for (std::size_t i = 0; i < burst_on_.size(); ++i) {
      burst_on_[i] = rng_.chance(on_fraction);  // stationary start
    }
  }
}

bool TrafficDriver::roll_injection(std::size_t initiator) {
  if (config_.burstiness <= 0.0) {
    return rng_.chance(config_.injection_rate);
  }
  // Dwell transition first, then the injection coin in the (possibly
  // new) state, so even a one-cycle ON dwell can inject.
  const bool on = burst_on_[initiator] ? !rng_.chance(p_on_to_off_)
                                       : rng_.chance(p_off_to_on_);
  burst_on_[initiator] = on;
  return on && rng_.chance(peak_rate_);
}

std::size_t TrafficDriver::pick_target(std::size_t initiator) {
  const std::size_t num_targets = network_.num_targets();
  switch (config_.pattern) {
    case Pattern::kUniformRandom:
      return rng_.next_below(num_targets);
    case Pattern::kHotspot:
      if (rng_.chance(config_.hotspot_fraction)) {
        return config_.hotspot_target;
      }
      return rng_.next_below(num_targets);
    case Pattern::kPermutation:
      return initiator % num_targets;
    case Pattern::kWeighted: {
      const auto& cum = cumulative_[initiator];
      const double total = cum.back();
      if (total <= 0) return num_targets;  // silent initiator sentinel
      const double roll = rng_.next_double() * total;
      for (std::size_t t = 0; t < cum.size(); ++t) {
        if (roll < cum[t]) return t;
      }
      return cum.size() - 1;
    }
  }
  return 0;
}

std::uint64_t TrafficDriver::roll_cycle(std::uint64_t /*cycle*/,
                                        std::uint64_t release) {
  for (std::size_t i = 0; i < network_.num_initiators(); ++i) {
    if (!roll_injection(i)) continue;
    const std::size_t target = pick_target(i);
    if (target >= network_.num_targets()) continue;  // silent row

    ocp::Transaction txn;
    std::uint32_t burst =
        config_.min_burst +
        static_cast<std::uint32_t>(rng_.next_below(
            config_.max_burst - config_.min_burst + 1));
    // Clamp the rolled burst to what the window can hold (the ctor
    // guarantees min_burst fits, so the clamp never reaches zero); an
    // unclamped burst would run past the target's window into the next
    // target's address space.
    const std::uint64_t window = network_.config().target_window;
    if (8ull * burst > window) {
      burst = static_cast<std::uint32_t>(window / 8);
    }
    txn.burst_len = burst;
    txn.thread_id = static_cast<std::uint32_t>(
        rng_.next_below(network_.config().num_threads));
    // Aligned address inside the window, room for the whole burst. The
    // max(1, ...) covers windows that are not multiples of 8: the tail
    // fragment leaves (window - span) / 8 == 0 aligned starts past base.
    const std::uint64_t span = 8ull * burst;
    const std::uint64_t slots =
        window > span ? std::max<std::uint64_t>(1, (window - span) / 8) : 1;
    txn.addr = network_.target_base(target) + 8 * rng_.next_below(slots);
    if (rng_.chance(config_.read_fraction)) {
      txn.cmd = ocp::Cmd::kRead;
    } else {
      txn.cmd = ocp::Cmd::kWrite;
      txn.data.reserve(burst);
      for (std::uint32_t b = 0; b < burst; ++b) {
        txn.data.push_back(rng_.next_u64());
      }
    }
    network_.master(i).push_transaction_at(std::move(txn), release);
    ++injected_;
  }
  return 0;  // every cycle draws from the RNG
}

}  // namespace xpl::traffic
