// Error-handling helpers for the xpipes lite library.
//
// Library-level contract violations (bad parameters, protocol misuse) throw
// xpl::Error; internal invariants use XPL_ASSERT which aborts with context.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xpl {

/// Exception thrown on API contract violations (invalid configuration,
/// malformed specifications, out-of-range arguments).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws xpl::Error with the given message if `cond` is false.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

/// Literal-message form: a passing check builds no std::string, so
/// checks on the per-cycle paths cost no heap allocation.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line) {
  std::fprintf(stderr, "xpl internal assertion failed: %s (%s:%d)\n", expr,
               file, line);
  std::abort();
}
}  // namespace detail

}  // namespace xpl

/// Internal invariant check. Always on (simulation correctness depends on it
/// and the cost is negligible next to the cycle loop body).
#define XPL_ASSERT(expr) \
  ((expr) ? (void)0 : ::xpl::detail::assert_fail(#expr, __FILE__, __LINE__))
