// Output-port arbiters.
//
// Each switch output port owns one arbiter choosing among the input ports
// that request it. The paper offers two policies: fixed priority (cheapest
// logic) and round robin (fair). Arbiters are plain combinational-logic
// models, unit-testable in isolation and mirrored gate-for-gate by the
// synthesis estimator.
//
// Requests arrive as a bitmask, the form the hardware's request lines
// take: requester r is bit r % 64 of word r / 64, and the mask spans
// request_words(num_inputs) words. Bits at or above num_inputs must be
// clear. A grant visits one word at a time with a count-trailing-zeros
// step, so its cost does not grow with the requesters left idle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace xpl::switchlib {

enum class ArbiterKind : std::uint8_t { kFixedPriority, kRoundRobin };

const char* arbiter_name(ArbiterKind kind);

/// Words in a request mask over `num_inputs` requesters.
constexpr std::size_t request_words(std::size_t num_inputs) {
  return (num_inputs + 63) / 64;
}

/// Read-only view of a request mask (see file comment).
using RequestMask = std::span<const std::uint64_t>;

/// Grants the lowest-indexed requester.
class FixedPriorityArbiter {
 public:
  explicit FixedPriorityArbiter(std::size_t num_inputs)
      : num_inputs_(num_inputs) {}

  /// Returns the granted input, or nullopt if no bit of `requests` is set.
  std::optional<std::size_t> grant(RequestMask requests);

  std::size_t num_inputs() const { return num_inputs_; }

 private:
  std::size_t num_inputs_;
};

/// Grants the first requester at or after a rotating pointer; the pointer
/// advances past each grant, giving each input a fair share.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t num_inputs)
      : num_inputs_(num_inputs) {}

  /// Returns the granted input, or nullopt (pointer unchanged) if no bit
  /// of `requests` is set.
  std::optional<std::size_t> grant(RequestMask requests);

  /// Pointer state (the synthesis model charges log2(n) flops for it).
  std::size_t pointer() const { return pointer_; }

  std::size_t num_inputs() const { return num_inputs_; }

 private:
  std::size_t num_inputs_;
  std::size_t pointer_ = 0;
};

/// Policy-erased arbiter used by the switch.
class Arbiter {
 public:
  Arbiter(ArbiterKind kind, std::size_t num_inputs)
      : kind_(kind), fixed_(num_inputs), rr_(num_inputs) {}

  std::optional<std::size_t> grant(RequestMask requests) {
    return kind_ == ArbiterKind::kFixedPriority ? fixed_.grant(requests)
                                                : rr_.grant(requests);
  }

  ArbiterKind kind() const { return kind_; }

 private:
  ArbiterKind kind_;
  FixedPriorityArbiter fixed_;
  RoundRobinArbiter rr_;
};

}  // namespace xpl::switchlib
