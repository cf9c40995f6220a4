// Host-speed reference: three fixed kernels that use nothing from the
// library, timed between repetitions.
//
// Shared VM hosts change speed in phases lasting minutes. On the 4-vCPU
// Xeon VM this benchmark was written on, the 30-s block means of one
// 25-minute run of mesh8_saturated went from ~3.8k to ~5.4k cycles/s within
// a single process, and a ten-seed pass spread ~30% when it straddled such
// a change. These kernels moved with the library's code (correlation
// 0.92-0.93 over the same blocks), while a latency-bound integer loop and
// pointer chases did not move at all. Each one alone also jitters from call
// to call; their geometric mean jitters least.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <list>
#include <vector>

#include "xbench.hpp"

namespace xbench {
namespace {

// Rates of the kernels on the nominal host (units per second): the VM above
// in its slower phase. They only set the scale of the normalised metrics.
constexpr double kNominalSort = 665.0;
constexpr double kNominalChurn = 3700.0;
constexpr double kNominalTable = 1150.0;

constexpr int kSortUnits = 48;
constexpr int kChurnUnits = 256;
constexpr int kTableUnits = 80;

struct XorShift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

volatile std::uint64_t g_sink = 0;

/// Branchy compares and swaps over a 64 KiB array: one unit sorts 16,384
/// random 32-bit keys.
double sort_rate() {
  XorShift rng{0x9E3779B97F4A7C15ull};
  std::vector<std::uint32_t> keys(16384);
  const auto t0 = Clock::now();
  for (int u = 0; u < kSortUnits; ++u) {
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next());
    std::sort(keys.begin(), keys.end());
    g_sink = g_sink + keys[keys.size() / 2];
  }
  return kSortUnits / seconds_since(t0);
}

/// Allocation churn and pointer walking: one unit builds a list of 2,000
/// small vectors, walks it and frees it.
double churn_rate() {
  XorShift rng{0xD1B54A32D192ED03ull};
  const auto t0 = Clock::now();
  for (int u = 0; u < kChurnUnits; ++u) {
    std::list<std::vector<int>> nodes;
    for (int i = 0; i < 2000; ++i) {
      nodes.emplace_back(8 + static_cast<int>(rng.next() & 63), i);
    }
    std::uint64_t acc = 0;
    for (const auto& n : nodes) acc += n.size() + static_cast<unsigned>(n[0]);
    g_sink = g_sink + acc;
  }
  return kChurnUnits / seconds_since(t0);
}

/// Independent integer streams updating a 32 KiB table, with a
/// data-dependent branch: one unit is 200,000 steps.
double table_rate() {
  XorShift a{1}, b{2};
  std::uint64_t c = 3, d = 4, acc = 0;
  std::vector<std::uint32_t> table(8192);
  const auto t0 = Clock::now();
  for (int u = 0; u < kTableUnits; ++u) {
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t x = a.next();
      const std::uint64_t y = b.next();
      c = c * 6364136223846793005ull + 1;
      d += x & y;
      table[x & 8191] += static_cast<std::uint32_t>(y);
      if (table[c >> 51] & 1) {
        acc += d;
      } else {
        acc ^= c;
      }
    }
  }
  g_sink = g_sink + acc;
  return kTableUnits / seconds_since(t0);
}

}  // namespace

double host_speed() {
  return std::cbrt(sort_rate() / kNominalSort * churn_rate() / kNominalChurn *
                   table_rate() / kNominalTable);
}

}  // namespace xbench
