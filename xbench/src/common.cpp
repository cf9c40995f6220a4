#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "xbench.hpp"

namespace xbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Fnv::mix(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ spans
namespace {
thread_local std::uint32_t t_request = 0;
thread_local std::uint32_t t_open_span = 0;
}  // namespace

void Tracer::set_request(std::uint32_t request) { t_request = request; }

std::uint32_t Tracer::open(std::uint32_t& parent_out) {
  parent_out = t_open_span;
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t_open_span = id;
  return id;
}

void Tracer::close(Span span) {
  t_open_span = span.parent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.duration();
  }
  return sum;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

SpanScope::SpanScope(Tracer& tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open(parent_);
  start_ = Clock::now();
}

SpanScope::~SpanScope() {
  if (!tracer_.enabled()) return;
  const Clock::time_point end = Clock::now();
  Span span;
  span.name = name_;
  span.id = id_;
  span.parent = parent_;
  span.request = t_request;
  span.start_s =
      std::chrono::duration<double>(start_ - tracer_.epoch_).count();
  span.end_s = std::chrono::duration<double>(end - tracer_.epoch_).count();
  tracer_.close(std::move(span));
}

}  // namespace xbench
