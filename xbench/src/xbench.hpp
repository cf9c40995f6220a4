// Shared pieces of the xbench benchmark: clocks, sample statistics, the
// allocation counter, the span tracer and the metric record.
//
// Spans and counters are recorded only in this directory's code, around
// calls into the library's public functions; nothing under src/ is
// instrumented.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// FNV-1a over 64-bit words or bytes: the result digests.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ull;
    }
  }
  void mix(double v);
  void mix(const std::string& bytes) {
    for (unsigned char c : bytes) {
      state_ ^= c;
      state_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

std::string hex64(std::uint64_t v);

// ------------------------------------------------------------ allocations
// The benchmark binary replaces the global operator new (alloc.cpp).
// Counting is switched on only for the traced legs; when off, operator
// new pays one relaxed load.
void set_alloc_counting(bool on);
/// Allocations by every thread while counting was on.
std::uint64_t allocs_global();
/// Allocations by the calling thread while counting was on.
std::uint64_t allocs_this_thread();

// ------------------------------------------------------------------ spans
/// One timed interval. Spans of one request (a repetition or a campaign
/// point) share `request`; `parent` is the enclosing span's id (0 = none).
struct Span {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t request = 0;
  double start_s = 0.0;  ///< since the tracer's epoch
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// In-memory span store, written out when the benchmark ends. Thread-safe:
/// campaign points record from the sweep pool's workers. Disabled tracers
/// record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Request id that spans begun on this thread are tagged with.
  static void set_request(std::uint32_t request);

  /// Summed duration of every span named `name`.
  double total(const std::string& name) const;
  std::vector<Span> spans() const;

 private:
  friend class SpanScope;
  std::uint32_t open(std::uint32_t& parent_out);
  void close(Span span);

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
  std::atomic<std::uint32_t> next_id_{1};
};

/// RAII span: records [construction, destruction) under `name`, parented
/// to the span open on this thread. A no-op on a disabled tracer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Clock::time_point start_;
};

// ---------------------------------------------------------------- records
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the result line's fields plus the
/// record's detail (digest, spans, extra notes).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::uint64_t digest = 0;  ///< result digest (equal across repetitions)
  std::vector<std::string> notes;  ///< why `correct` is false, stalls, ...
  std::vector<Span> spans;         ///< traced runs only

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail_check(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + std::move(why));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Speed of the host now relative to the nominal host (> 1: faster), from
/// ~0.2 s of fixed kernels that use nothing from the library
/// (reference.cpp). The end-to-end metrics are host times converted to the
/// nominal host: a time is multiplied by the factor measured just before
/// it, a rate divided by it.
double host_speed();

}  // namespace xbench
