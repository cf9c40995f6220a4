// Cycle-accurate two-phase simulation kernel.
//
// This is the repository's substitute for the SystemC runtime the original
// xpipes lite library was written against (see DESIGN.md §2). The modelling
// discipline matches fully synchronous, fully registered RTL:
//
//  * Every inter-module connection is a Signal<T> with current/next values.
//  * Each cycle the kernel calls Module::tick() on every module. A tick
//    reads only *current* signal values and writes *next* values, then the
//    kernel commits all signals at once. Module evaluation order therefore
//    cannot affect results, and every signal hop costs exactly one cycle —
//    the same semantics as a flop-to-flop path in the synthesizable RTL.
//  * xpipes lite was explicitly "designed for pipelined links", i.e. all of
//    its interfaces tolerate register stages, so this discipline models the
//    real library without combinational cross-module paths.
//
// Signals hold their value until rewritten. Modules drive each output wire
// on change (plus one trailing reset write when the wire returns to idle),
// so a wire's committed per-cycle value sequence is identical to the
// classic drive-every-cycle discipline.
//
// Two schedulers share this contract (Scheduler, DESIGN.md §9):
//
//  * kFull ticks every module every cycle and commits per-type signal
//    pools in a tight devirtualized loop (one virtual dispatch per *type*
//    per cycle; the per-signal work is a predictable written-flag branch).
//    At ~100% write density an explicit dirty list measured slower — see
//    DESIGN.md §2 — which is why the full path keeps the flag scan. It is
//    the reference oracle every other execution path is proven against.
//  * kTimeLeap is the event-driven scheduler. It keeps an active set,
//    and each module answers one question after it ticks:
//    Module::next_event(), the cycle of its next self-driven change.
//    kNever sleeps the module until a signal it watches is written
//    (Signal::watch wires the wake) or it is woken explicitly
//    (Module::wake, e.g. on an external push_transaction). A future
//    cycle (a beat mid-pipe, a job inside its service window, a blocked
//    release) parks it on a timed-wake calendar (calendar.hpp). When the
//    active set drains the kernel leaps the clock straight to the
//    calendar's next due cycle instead of walking the gap. Write density
//    is low, so commit walks the cycle's dirty list instead of scanning
//    every signal. kGated is the legacy spelling of the same scheduler.
//
// Both schedulers are required to be bit-exact with each other; the
// differential harness in tests/kernel_equiv_test.cpp and
// tests/timeleap_test.cpp checks per-cycle Kernel::digest() equality over
// randomized scenarios.
//
// Conservative-window partitioned execution composes with either
// scheduler: the module/signal graph is split into partitions that never
// share a signal, cross-partition links are replaced by CutChannel
// mailboxes, and every partition advances `lookahead` cycles between
// exchange barriers (DESIGN.md §10). Exports stay byte-identical at any
// partition and thread count because signal creation order — and hence
// digest order — is independent of the partitioning, and mailboxes are
// flushed single-threaded in registration order. An unpartitioned kernel
// is partition 0 of 1: every execution shape runs the same per-cycle
// bodies over a Partition's module list, dirty list and calendar.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/sim/calendar.hpp"

namespace xpl::sim {

class Kernel;
class PartitionPool;

namespace detail {
/// Per-thread pointer to the executing partition's local cycle counter.
/// Inside a lookahead epoch each partition advances its own clock, so
/// Kernel::cycle() must answer with the ticking partition's time — not
/// the global counter, which only moves at epoch barriers. Null outside
/// partitioned execution (the common case: one predictable branch).
/// Defined inline with a constant initializer. Declared `extern` with an
/// out-of-line definition, GCC 12 ASan+UBSan builds reported a null
/// pointer load on every read in Kernel::cycle().
inline thread_local const std::uint64_t* g_cycle_override = nullptr;
}  // namespace detail

/// A deterministic cross-partition conduit (e.g. link::CutLink). The
/// kernel calls exchange() between epochs — single-threaded, in
/// registration order — to move staged records to their delivery side.
class CutChannel {
 public:
  virtual ~CutChannel() = default;

  /// Flushes every record staged during the finished epoch to the
  /// receiving side and wakes the consuming half-modules.
  virtual void exchange() = 0;

  /// Valid forward beats moved across the cut so far (bench counter).
  virtual std::uint64_t flits_exchanged() const = 0;
};

/// Kernel scheduling mode; fixed at Kernel construction.
enum class Scheduler : std::uint8_t {
  kFull,      ///< tick every module every cycle: the reference oracle
  kTimeLeap,  ///< event-driven: tick the awake set, leap quiescent gaps
  /// Legacy spelling of kTimeLeap, kept for code and specs written when
  /// `gated` named a separate scheduler.
  kGated = kTimeLeap,
};

inline const char* scheduler_name(Scheduler s) {
  return s == Scheduler::kFull ? "full" : "time_leap";
}

/// Base class of all clocked hardware modules.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  /// One clock cycle: read current signal values, write next values and
  /// stage internal state updates. Called exactly once per cycle under the
  /// full scheduler; skipped while asleep under the event-driven one.
  virtual void tick(Kernel& kernel) = 0;

  /// The module's one sleep claim (event-driven scheduler): the cycle of
  /// its next *self-driven* state change, asked right after each tick
  /// the module runs. The kernel asks after commit, so implementations
  /// read committed signal values. Contract:
  ///
  ///  * now + 1 or less (the safe default) — stay awake; tick next cycle.
  ///  * kNever — sleep until a watched signal is written or wake() is
  ///    called: the next tick would provably change no internal state and
  ///    write no signal value that differs from what the wires hold.
  ///  * any c > now + 1 — sleep on the wake calendar until cycle c; every
  ///    tick in (now, c) must be an observable no-op (no committed signal
  ///    change, no internal state change that a later cycle could see).
  ///    Counters that would have advanced during the gap must be caught
  ///    up in closed form on the next tick (DESIGN.md §9).
  ///
  /// Spurious early wakes are harmless by the same contract; returning a
  /// too-late cycle is a correctness bug the differential harness catches.
  /// See DESIGN.md §9 for the per-module contracts.
  virtual std::uint64_t next_event(std::uint64_t now) const {
    return now + 1;
  }

  /// Re-arms this module. Called automatically when a watched signal is
  /// written; call it directly when injecting work from outside the
  /// simulation (e.g. MasterCore::push_transaction). Arms the *current*
  /// tick phase too: an externally-injected transaction must be served
  /// the same cycle as under the full scheduler, and an extra tick of a
  /// sleeping module is a no-op by the next_event() contract, so a
  /// mid-phase wake of a later-ordered module is harmless.
  void wake() {
    woken_ = true;
    awake_ = true;
  }

  /// True while the event-driven scheduler is ticking this module (always
  /// true under the full scheduler, which ignores the flag).
  bool awake() const { return awake_; }

 private:
  friend class Kernel;

  std::string name_;
  bool awake_ = true;  ///< event-driven scheduler: ticked this cycle
  bool woken_ = false; ///< event-driven: wake requested during this cycle
  std::size_t partition_ = 0;  ///< owning partition (0 when unpartitioned)
#ifndef NDEBUG
  /// Debug guard: cycle of the last event-driven tick (kNever before it).
  std::uint64_t last_tick_ = kNever;
#endif
};

/// Accumulating 64-bit state hash (FNV-1a style). Used by the differential
/// kernel-equivalence tests to compare full vs time-leap per cycle;
/// never touched on the simulation hot path.
class Digest {
 public:
  void mix(std::uint64_t v) {
    state_ ^= v;
    state_ *= 1099511628211ULL;
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

/// Customization point: overload hash_append(Digest&, const T&) in T's
/// namespace for every type carried on a Signal that tests digest. The
/// generic overload covers arithmetic and enum payloads.
template <typename T>
  requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
inline void hash_append(Digest& d, const T& v) {
  d.mix(static_cast<std::uint64_t>(v));
}

/// One staged signal awaiting dirty-list commit (event-driven scheduler or
/// partitioned kernel). The commit thunk devirtualizes per-entry dispatch
/// into a direct function-pointer call; committing a signal whose written
/// flag is already clear is a no-op, so duplicate entries (possible when a
/// test commits a signal by hand) are harmless.
struct DirtyEntry {
  void* signal = nullptr;
  void (*commit)(void*) = nullptr;
};
using DirtyList = std::vector<DirtyEntry>;

/// A registered wire of type T between two modules.
///
/// read() returns the value as of the last commit; write() stages a value
/// that becomes visible after the current cycle's commit. Signals have no
/// virtual functions: the kernel owns them in per-type pools and commits
/// them with direct calls.
template <typename T>
class Signal {
 public:
  explicit Signal(T reset = T{}) : curr_(reset), next_(std::move(reset)) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  const T& read() const { return curr_; }

  void write(T value) {
    next_ = std::move(value);
    if (dirty_list_ != nullptr && !written_) {
      dirty_list_->push_back(
          {this, [](void* s) { static_cast<Signal<T>*>(s)->commit(); }});
      if (watchers_[0] != nullptr) watchers_[0]->wake();
      if (watchers_[1] != nullptr) watchers_[1]->wake();
    }
    written_ = true;
  }

  bool written() const { return written_; }

  /// The value this signal will hold after this cycle's commit: the
  /// staged write if one happened, else the held value. Cut-link sender
  /// halves sample this during the tick phase — they are registered
  /// after every module that can drive the wire, so a beat written at
  /// cycle t is captured at t and replayed downstream at t+1+stages,
  /// exactly the uncut PipelinedLink timing (DESIGN.md §10).
  const T& staged() const { return written_ ? next_ : curr_; }

  /// Registers `consumer` to be woken whenever this signal is written
  /// (event-driven scheduler). Two slots: one reading consumer plus one
  /// passive observer (e.g. an ocp::Monitor snooping a wire it does not
  /// own).
  void watch(Module& consumer) {
    if (watchers_[0] == nullptr || watchers_[0] == &consumer) {
      watchers_[0] = &consumer;
      return;
    }
    XPL_ASSERT(watchers_[1] == nullptr || watchers_[1] == &consumer);
    watchers_[1] = &consumer;
  }

  /// Applies the staged value. Called from the pool commit loop (full
  /// scheduler) or via the dirty-list thunk (event-driven); the
  /// written-flag test keeps idle signals at one predictable branch and
  /// makes duplicate dirty entries no-ops.
  void commit() {
    if (written_) {
      curr_ = std::move(next_);
      written_ = false;
    }
  }

 private:
  friend class Kernel;

  T curr_;
  T next_;
  bool written_ = false;
  DirtyList* dirty_list_ = nullptr;  ///< null iff full and unpartitioned
  Module* watchers_[2] = {nullptr, nullptr};
};

/// Owns signals, schedules modules, and advances simulated time.
class Kernel {
 public:
  // Both out of line: PartitionPool is incomplete here (pool_ member).
  explicit Kernel(Scheduler scheduler = Scheduler::kFull);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Scheduler scheduler() const { return scheduler_; }

  /// Splits execution into `partitions` groups of modules/signals that
  /// run concurrently on up to `threads` worker threads (clamped to the
  /// partition count; 1 = serial epochs, still batched for locality).
  /// Must be called before any signal or module is created; partitions
  /// <= 1 is a no-op and leaves the kernel on the unpartitioned path.
  /// Signals and modules created afterwards join the partition selected
  /// by set_creation_partition(). Cross-partition connections must go
  /// through a registered CutChannel — a signal written in one partition
  /// and read or watched in another is a data race by construction.
  void configure_partitions(std::size_t partitions, std::size_t threads);

  bool partitioned() const { return partitions_.size() > 1; }
  std::size_t partition_count() const { return partitions_.size(); }
  std::size_t thread_count() const { return threads_; }

  /// Selects the partition that subsequently created signals and modules
  /// join (construction-time only; ignored when unpartitioned).
  void set_creation_partition(std::size_t partition) {
    XPL_ASSERT(partitions_.empty() || partition < partitions_.size());
    creation_partition_ = partition;
  }

  /// Registers a cross-partition conduit, flushed after every epoch in
  /// registration order (the determinism anchor for exchange effects).
  void register_cut(CutChannel& cut) { cuts_.push_back(&cut); }

  /// Sets the conservative window: cycles each partition advances
  /// between exchange barriers. Safe iff k <= 1 + min stage count over
  /// all cut links (a record sampled at cycle t is due at t+1+stages,
  /// and must not be due before the next barrier delivers it).
  void set_lookahead(std::uint64_t k) {
    XPL_ASSERT(k >= 1);
    lookahead_ = k;
  }
  /// Cycles per epoch (1 unless partitioned with pipelined cuts).
  std::uint64_t lookahead() const { return partitioned() ? lookahead_ : 1; }

  /// Epoch barriers executed so far (0 unless partitioned).
  std::uint64_t epochs() const { return epochs_; }

  /// Total valid forward beats moved across all cuts (bench counter).
  std::uint64_t cut_flits() const;

  /// Creates a kernel-owned signal and returns a stable reference. The
  /// signal joins the pool of its type (pools use deque storage, so
  /// references never move while the pool grows). Pool membership — and
  /// hence digest order — tracks creation order only, never partition
  /// assignment, which is what keeps digests comparable across
  /// partitionings.
  template <typename T>
  Signal<T>& make_signal(T reset = T{}) {
    SignalPool<T>& pool = pool_for<T>();
    pool.signals.emplace_back(std::move(reset));
    ++signal_count_;
    Signal<T>& sig = pool.signals.back();
    // Only the unpartitioned full scheduler commits by pool sweep; every
    // other shape walks its partition's dirty list (the sweep cannot be
    // split by partition).
    if (partitioned() || scheduler_ != Scheduler::kFull) {
      sig.dirty_list_ = &partitions_[creation_partition_]->dirty;
    }
    return sig;
  }

  /// Registers a module. The kernel does not take ownership; modules must
  /// outlive the kernel's run (the Network owns them in practice). When
  /// partitioned the module also joins the current creation partition's
  /// tick list (a subsequence of the global registration order).
  void add_module(Module& module) {
    modules_.push_back(&module);
    module.partition_ = creation_partition_;
    partitions_[creation_partition_]->modules.push_back(&module);
  }

  /// Advances one clock cycle: tick (awake) modules, commit staged
  /// signals, update the active set (event-driven). Never leaps.
  /// Partitioned: a one-cycle epoch (exact, just without lookahead
  /// batching).
  void step();

  /// Advances `cycles` clock cycles. Partitioned: runs epochs of up to
  /// lookahead() cycles with a cut exchange between epochs.
  void run(std::uint64_t cycles);

  /// Runs until `done()` returns true or `max_cycles` elapse; returns the
  /// number of cycles actually run. Always cycle-exact: `done` is
  /// evaluated at every cycle boundary even when partitioned (callers
  /// count drain cycles; lookahead batching would overshoot).
  std::uint64_t run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles);

  /// Parks `m` on the wake calendar for cycle `due` (time-leap scheduler).
  /// Under kFull — or when `due` is not in the future — this wakes
  /// the module immediately instead: an extra awake tick is a no-op by the
  /// next_event() contract, so callers need no scheduler-specific logic.
  void schedule_wake(Module& m, std::uint64_t due) {
    if (scheduler_ == Scheduler::kFull || due <= cycle()) {
      m.wake();
      return;
    }
    partitions_[m.partition_]->calendar.schedule(due, &m);
  }

  /// Cycles skipped (never walked) by time-leap clock jumps. 0 under
  /// kFull; the bench suite reports leapt_cycles()/cycles as leapt_frac.
  std::uint64_t leapt_cycles() const;

  /// Module ticks executed so far, summed over partitions (each counts
  /// its own, so threads never share the counter). Not part of digest().
  /// ticks() / (module_count() * cycles) is the time-integrated awake
  /// share; module_count() per cycle under kFull.
  std::uint64_t ticks() const;

  /// Cycles elapsed since construction. Callable from module ticks even
  /// inside a lookahead epoch: the executing partition's local clock is
  /// threaded through detail::g_cycle_override.
  std::uint64_t cycle() const {
    const std::uint64_t* over = detail::g_cycle_override;
    return over != nullptr ? *over : cycle_;
  }

  std::size_t module_count() const { return modules_.size(); }
  /// Registered modules in tick order (quiescence-invariant tests walk
  /// this to check every module's next_event() claim after a drain).
  const std::vector<Module*>& modules() const { return modules_; }
  std::size_t signal_count() const { return signal_count_; }
  /// Distinct signal types in use (== virtual dispatches per commit).
  std::size_t signal_pool_count() const { return pools_.size(); }
  /// Modules ticked last cycle (== module_count() under kFull).
  std::size_t awake_count() const;

  /// Hash of every signal's committed value, in creation order. Two
  /// identically constructed kernels in the same state produce the same
  /// digest regardless of scheduler — the oracle of the differential
  /// kernel-equivalence tests. Test-only: never called on the hot path.
  std::uint64_t digest() const;

 private:
  /// Type-erased pool handle: one virtual call per type per cycle.
  struct SignalPoolBase {
    virtual ~SignalPoolBase() = default;
    virtual void commit_all() = 0;
    virtual void digest_into(Digest& d) const = 0;
  };

  /// All signals of one type T. Deque storage keeps references stable
  /// under growth while the commit loop walks large contiguous chunks.
  template <typename T>
  struct SignalPool final : SignalPoolBase {
    std::deque<Signal<T>> signals;

    void commit_all() override {
      for (Signal<T>& s : signals) s.commit();  // direct, inlinable call
    }

    void digest_into(Digest& d) const override {
      for (const Signal<T>& s : signals) hash_append(d, s.read());
    }
  };

  template <typename T>
  SignalPool<T>& pool_for() {
    const std::type_index key(typeid(T));
    auto it = pool_index_.find(key);
    if (it == pool_index_.end()) {
      auto pool = std::make_unique<SignalPool<T>>();
      SignalPool<T>* raw = pool.get();
      pools_.push_back(std::move(pool));
      it = pool_index_.emplace(key, raw).first;
    }
    return *static_cast<SignalPool<T>*>(it->second);
  }

  /// One execution group: its modules (a subsequence of modules_), its
  /// own dirty list (no sharing — commits race-free by construction),
  /// and its clock inside the current epoch. The wake calendar and the
  /// leap and tick counters are partition-local too, so the event-driven
  /// path stays free of cross-thread state. An unpartitioned kernel is
  /// partition 0 of 1.
  struct Partition {
    std::vector<Module*> modules;
    DirtyList dirty;
    std::uint64_t local_cycle = 0;
    WakeCalendar calendar;
    std::uint64_t leapt = 0;
    std::uint64_t ticks = 0;
  };

  /// One full-scheduler cycle: tick every module in `mods`, then commit —
  /// by pool sweep when unpartitioned, else the dirty lists of partitions
  /// [first, last).
  void full_cycle(const std::vector<Module*>& mods, std::size_t first,
                  std::size_t last);

  /// The event-driven per-cycle body at cycle `now`: serve the calendars
  /// of partitions [first, last), tick the awake modules of `mods`,
  /// commit those partitions' dirty lists, then settle the active set —
  /// a busy module whose next self-driven change lies beyond the next
  /// cycle parks on its partition's calendar. Returns the modules awake
  /// for the next cycle. Ticks are counted in partition `first`.
  std::size_t event_cycle(const std::vector<Module*>& mods,
                          std::size_t first, std::size_t last,
                          std::uint64_t now);

  /// The advance loop for one partition: runs cycles on `clock` until it
  /// reaches `end` or `done()` holds at a cycle boundary. With `may_leap`
  /// (event-driven only) a drained active set leaps `clock` to the
  /// partition calendar's next due cycle, capped at `end` — the caller's
  /// bound, or the epoch barrier inside an epoch.
  template <typename Done>
  void advance(std::size_t part, std::uint64_t& clock, std::uint64_t end,
               bool may_leap, const Done& done);

  /// Runs every partition for `k` cycles (pooled or serial), advances
  /// global time, then flushes cuts in registration order.
  void run_epoch(std::uint64_t k);

  /// Advances partition `part` `k` cycles against its local clock.
  /// Called from worker threads; touches only partition-local state.
  void run_partition(std::size_t part, std::uint64_t k);

  friend class PartitionPool;

  Scheduler scheduler_ = Scheduler::kFull;
  std::vector<Module*> modules_;
  std::vector<std::unique_ptr<SignalPoolBase>> pools_;
  std::unordered_map<std::type_index, SignalPoolBase*> pool_index_;
  std::size_t signal_count_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t leapt_cycles_ = 0;  ///< wholesale all-partition leaps

  // One partition unless configure_partitions split the kernel.
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<CutChannel*> cuts_;
  std::size_t creation_partition_ = 0;
  std::size_t threads_ = 1;
  std::uint64_t lookahead_ = 1;
  std::uint64_t epochs_ = 0;
  std::unique_ptr<PartitionPool> pool_;  ///< lazily built when threads_ > 1
};

}  // namespace xpl::sim
