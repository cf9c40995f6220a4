// Counting global operator new for the traced legs (alloc.* rows). The
// global total feeds network workloads, whose partition workers allocate
// too; the per-thread total attributes allocations to one campaign point
// while the sweep pool runs another point on a second thread.
#include <cstdlib>
#include <new>

#include "xbench.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;
}  // namespace

namespace xbench {
void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t allocs_global() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::uint64_t allocs_this_thread() { return t_allocs; }
}  // namespace xbench

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_allocs;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Matched with std::free: the replaced operator new allocates with
// std::malloc (GCC cannot see that pairing through a replaced new).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
