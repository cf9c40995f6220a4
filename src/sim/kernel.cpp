#include "src/sim/kernel.hpp"

#include <algorithm>
#include <cassert>

#include "src/sim/partition.hpp"

namespace xpl::sim {

namespace {

/// Condition for run() and step(): stop only at the cycle bound.
constexpr auto kNotDone = [] { return false; };

std::size_t count_awake(const std::vector<Module*>& mods) {
  std::size_t n = 0;
  for (const Module* m : mods) {
    if (m->awake()) ++n;
  }
  return n;
}

}  // namespace

Kernel::Kernel(Scheduler scheduler) : scheduler_(scheduler) {
  partitions_.push_back(std::make_unique<Partition>());
}
Kernel::~Kernel() = default;

void Kernel::configure_partitions(std::size_t partitions,
                                  std::size_t threads) {
  // Must precede all signal/module creation: dirty-list routing and
  // partition membership are fixed at creation time.
  XPL_ASSERT(modules_.empty() && signal_count_ == 0);
  if (partitions <= 1) return;
  partitions_.clear();
  partitions_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
  }
  threads_ = std::clamp<std::size_t>(threads, 1, partitions);
}

std::uint64_t Kernel::cut_flits() const {
  std::uint64_t total = 0;
  for (const CutChannel* c : cuts_) total += c->flits_exchanged();
  return total;
}

void Kernel::full_cycle(const std::vector<Module*>& mods, std::size_t first,
                        std::size_t last) {
  for (Module* m : mods) {
    m->tick(*this);
  }
  partitions_[first]->ticks += mods.size();
  if (partitioned()) {
    for (std::size_t i = first; i < last; ++i) {
      Partition& p = *partitions_[i];
      for (const DirtyEntry& e : p.dirty) e.commit(e.signal);
      p.dirty.clear();
    }
    return;
  }
  // Commit per type pool: one virtual dispatch per signal *type*, then a
  // tight non-virtual loop testing each signal's written flag (see
  // Signal::commit and DESIGN.md §2).
  for (auto& pool : pools_) {
    pool->commit_all();
  }
}

std::size_t Kernel::event_cycle(const std::vector<Module*>& mods,
                                std::size_t first, std::size_t last,
                                std::uint64_t now) {
  // Serve the calendar first: a module due this cycle must tick this
  // cycle. wake() also sets woken_, so a calendar-woken module stays in
  // the active set one extra cycle — a harmless frozen-tick no-op.
  for (std::size_t i = first; i < last; ++i) {
    partitions_[i]->calendar.advance(now);
  }
  // Tick only the active set. Writes to watched signals during this phase
  // set the consumers' woken flags and append dirty entries.
  std::uint64_t ticks = 0;
  for (Module* m : mods) {
    if (!m->awake_) continue;
#ifndef NDEBUG
    assert(m->last_tick_ == kNever || m->last_tick_ < now);  // once/cycle
    m->last_tick_ = now;
#endif
    m->tick(*this);
    ++ticks;
  }
  partitions_[first]->ticks += ticks;
  // Commit exactly the signals written this cycle: write density is low
  // (sleeping modules drive nothing), so the dirty list beats the
  // full-pool flag scan that wins at ~100% density (DESIGN.md §2/§9).
  for (std::size_t i = first; i < last; ++i) {
    Partition& p = *partitions_[i];
    for (const DirtyEntry& e : p.dirty) e.commit(e.signal);
    p.dirty.clear();
  }
  // Settle the active set, after commit so next_event() reads committed
  // values: a woken module joins the set; a ticked module stays in it
  // while its next self-driven change is due next cycle, and otherwise
  // leaves it — signal-wake only (kNever) or parked on its calendar.
  std::size_t awake = 0;
  for (Module* m : mods) {
#ifndef NDEBUG
    assert(m->last_tick_ != now || m->awake_);  // a ticked module is awake
#endif
    if (m->woken_) {
      m->awake_ = true;
      m->woken_ = false;
      ++awake;
    } else if (m->awake_) {
      const std::uint64_t e = m->next_event(now);
      if (e <= now + 1) {
        ++awake;
      } else {
        m->awake_ = false;
        if (e != kNever) partitions_[m->partition_]->calendar.schedule(e, m);
      }
    }
  }
  return awake;
}

template <typename Done>
void Kernel::advance(std::size_t part, std::uint64_t& clock,
                     std::uint64_t end, bool may_leap, const Done& done) {
  Partition& p = *partitions_[part];
  const bool full = scheduler_ == Scheduler::kFull;
  may_leap = may_leap && !full;
  // Re-derive the awake count at entry: exchange deliveries and external
  // pushes (push_transaction between runs) flip awake_ flags without
  // this loop seeing them.
  std::size_t awake = may_leap ? count_awake(p.modules) : 1;
  while (clock < end && !done()) {
    if (may_leap && awake == 0) {
      const std::uint64_t target = std::min(p.calendar.next_due(), end);
      if (target > clock) {
        p.leapt += target - clock;
        clock = target;
        continue;
      }
    }
    if (full) {
      full_cycle(p.modules, part, part + 1);
    } else {
      awake = event_cycle(p.modules, part, part + 1, clock);
    }
    ++clock;
  }
}

void Kernel::step() {
  if (partitioned()) {
    run_epoch(1);
    return;
  }
  // A single step never leaps: step() is the cycle-exact primitive the
  // differential harness leans on.
  advance(0, cycle_, cycle_ + 1, /*may_leap=*/false, kNotDone);
}

void Kernel::run_partition(std::size_t part, std::uint64_t k) {
  Partition& p = *partitions_[part];
  p.local_cycle = cycle_;
  detail::g_cycle_override = &p.local_cycle;
  // Partition-local leaps are capped at the epoch barrier: a record
  // staged for a neighbour is only delivered there.
  advance(part, p.local_cycle, cycle_ + k, /*may_leap=*/true, kNotDone);
  detail::g_cycle_override = nullptr;
}

// Serial one-cycle epochs (mesh cuts have zero stages, so k == 1) gain
// nothing from per-partition passes but pay their cache cost: two walks
// over the module list and signal working set per cycle instead of one.
// At saturation that measured ~25-35% on a 1-core host. Fuse the
// partitions into one global-registration-order pass over the same
// per-cycle bodies — bit-exact, since cross-partition reads and watches
// are forbidden by construction, partition module lists are subsequences
// of modules_, and commits of distinct signals commute (the invariance
// suite and goldens pin this). Intra-epoch leaps are impossible at
// k == 1; the wholesale all-asleep fast-forward lives in Kernel::run.
void Kernel::run_epoch(std::uint64_t k) {
  if (threads_ > 1) {
    if (!pool_) pool_ = std::make_unique<PartitionPool>(*this, threads_);
    pool_->run_epoch(k);
  } else if (k == 1 && scheduler_ == Scheduler::kFull) {
    full_cycle(modules_, 0, partitions_.size());
  } else if (k == 1) {
    event_cycle(modules_, 0, partitions_.size(), cycle_);
  } else {
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      run_partition(p, k);
    }
  }
  cycle_ += k;
  // Single-threaded exchange in registration (= topology link id) order:
  // the determinism anchor for all cross-partition effects.
  for (CutChannel* c : cuts_) {
    c->exchange();
  }
  ++epochs_;
}

std::size_t Kernel::awake_count() const {
  if (scheduler_ == Scheduler::kFull) return modules_.size();
  return count_awake(modules_);
}

std::uint64_t Kernel::digest() const {
  Digest d;
  for (const auto& pool : pools_) {
    pool->digest_into(d);
  }
  return d.value();
}

void Kernel::run(std::uint64_t cycles) {
  const std::uint64_t end = cycle_ + cycles;
  if (!partitioned()) {
    advance(0, cycle_, end, /*may_leap=*/true, kNotDone);
    return;
  }
  while (cycle_ < end) {
    // Wholesale epoch fast-forward: when every module in every partition
    // is asleep, no epoch before the earliest calendar due can tick
    // anything, stage anything, or exchange anything (empty exchanges
    // are no-ops, and all-asleep implies no undelivered wakes), so the
    // skipped epochs need not execute at all. epochs() counts executed
    // barriers only.
    if (scheduler_ != Scheduler::kFull && count_awake(modules_) == 0) {
      std::uint64_t target = end;
      for (const auto& p : partitions_) {
        target = std::min(target, p->calendar.next_due());
      }
      if (target > cycle_) {
        leapt_cycles_ += target - cycle_;
        cycle_ = target;
        continue;
      }
    }
    run_epoch(std::min<std::uint64_t>(lookahead_, end - cycle_));
  }
}

std::uint64_t Kernel::run_until(const std::function<bool()>& done,
                                std::uint64_t max_cycles) {
  const std::uint64_t start = cycle_;
  if (!partitioned()) {
    // Leaping stays cycle-exact for the callers this interface serves:
    // done() predicates read module state (drain/quiescence checks),
    // which is frozen across a leapt gap, so one evaluation before the
    // leap covers every skipped boundary.
    advance(0, cycle_, start + max_cycles, /*may_leap=*/true, done);
    return cycle_ - start;
  }
  // Partitioned: one-cycle epochs, so done() sees every cycle boundary.
  while (cycle_ - start < max_cycles && !done()) {
    run_epoch(1);
  }
  return cycle_ - start;
}

std::uint64_t Kernel::leapt_cycles() const {
  std::uint64_t total = leapt_cycles_;
  for (const auto& p : partitions_) total += p->leapt;
  return total;
}

std::uint64_t Kernel::ticks() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->ticks;
  return total;
}

}  // namespace xpl::sim
