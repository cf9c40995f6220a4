#include "src/switchlib/arbiter.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace xpl::switchlib {

const char* arbiter_name(ArbiterKind kind) {
  switch (kind) {
    case ArbiterKind::kFixedPriority:
      return "fixed";
    case ArbiterKind::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

std::optional<std::size_t> FixedPriorityArbiter::grant(RequestMask requests) {
  XPL_ASSERT(requests.size() == request_words(num_inputs_));
  for (std::size_t w = 0; w < requests.size(); ++w) {
    if (requests[w] != 0) {
      const std::size_t i = w * 64 + std::countr_zero(requests[w]);
      XPL_ASSERT(i < num_inputs_);
      return i;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> RoundRobinArbiter::grant(RequestMask requests) {
  XPL_ASSERT(requests.size() == request_words(num_inputs_));
  // The mask rotated right by the pointer, scanned word by word: the
  // pointer's own word with the bits below the pointer cleared, the words
  // above it, then (wrapping) the words below it and finally the bits of
  // the pointer's word below the pointer.
  const std::size_t words = requests.size();
  const std::size_t start = pointer_ / 64;
  const std::uint64_t below = (std::uint64_t{1} << (pointer_ % 64)) - 1;
  for (std::size_t k = 0; k <= words; ++k) {
    const std::size_t w = (start + k) % words;
    std::uint64_t bits = requests[w];
    if (k == 0) bits &= ~below;
    if (k == words) bits &= below;
    if (bits == 0) continue;
    const std::size_t i = w * 64 + std::countr_zero(bits);
    XPL_ASSERT(i < num_inputs_);
    pointer_ = i + 1 == num_inputs_ ? 0 : i + 1;
    return i;
  }
  return std::nullopt;
}

}  // namespace xpl::switchlib
