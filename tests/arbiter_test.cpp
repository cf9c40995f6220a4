// Arbiter policies: correctness and fairness over request bitmasks.
#include "src/switchlib/arbiter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace xpl::switchlib {
namespace {

/// Request mask over `n` requesters with the listed bits set.
std::vector<std::uint64_t> mask(std::size_t n,
                                std::initializer_list<std::size_t> set) {
  std::vector<std::uint64_t> m(request_words(n), 0);
  for (const auto i : set) m[i / 64] |= std::uint64_t{1} << (i % 64);
  return m;
}

TEST(RequestWords, OneWordPerSixtyFourRequesters) {
  EXPECT_EQ(request_words(1), 1u);
  EXPECT_EQ(request_words(64), 1u);
  EXPECT_EQ(request_words(65), 2u);
  EXPECT_EQ(request_words(88), 2u);
  EXPECT_EQ(request_words(129), 3u);
}

TEST(FixedPriorityArbiter, GrantsLowestIndex) {
  FixedPriorityArbiter arb(4);
  EXPECT_EQ(arb.grant(mask(4, {2, 3})).value(), 2u);
  EXPECT_EQ(arb.grant(mask(4, {0, 3})).value(), 0u);
  EXPECT_EQ(arb.grant(mask(4, {3})).value(), 3u);
}

TEST(FixedPriorityArbiter, NoRequestNoGrant) {
  FixedPriorityArbiter arb(4);
  EXPECT_FALSE(arb.grant(mask(4, {})).has_value());
  FixedPriorityArbiter wide(130);
  EXPECT_FALSE(wide.grant(mask(130, {})).has_value());
}

TEST(FixedPriorityArbiter, StarvesHighIndices) {
  // Documented behaviour: under continuous low-index load, high indices
  // never win — the reason the paper also offers round robin.
  FixedPriorityArbiter arb(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.grant(mask(3, {0, 2})).value(), 0u);
  }
}

TEST(FixedPriorityArbiter, MultiWordGrantsLowestAcrossWords) {
  FixedPriorityArbiter arb(88);
  EXPECT_EQ(arb.grant(mask(88, {70, 87})).value(), 70u);
  EXPECT_EQ(arb.grant(mask(88, {63, 64})).value(), 63u);
  EXPECT_EQ(arb.grant(mask(88, {87})).value(), 87u);
}

TEST(RoundRobinArbiter, RotatesAmongRequesters) {
  RoundRobinArbiter arb(4);
  const auto all = mask(4, {0, 1, 2, 3});
  EXPECT_EQ(arb.grant(all).value(), 0u);
  EXPECT_EQ(arb.grant(all).value(), 1u);
  EXPECT_EQ(arb.grant(all).value(), 2u);
  EXPECT_EQ(arb.grant(all).value(), 3u);
  EXPECT_EQ(arb.grant(all).value(), 0u);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 1u);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 3u);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 1u);
}

TEST(RoundRobinArbiter, NoRequestNoGrantKeepsPointer) {
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.grant(mask(3, {2})).value(), 2u);
  EXPECT_FALSE(arb.grant(mask(3, {})).has_value());
  // Pointer still past 2: next grant starts the scan at 0.
  EXPECT_EQ(arb.grant(mask(3, {0, 2})).value(), 0u);
}

TEST(RoundRobinArbiter, PointerWrapsPastLastRequester) {
  // A grant to the last requester wraps the pointer to 0, not to
  // num_inputs (a 64-bit word holds bits past 5 that must never win).
  RoundRobinArbiter arb(5);
  EXPECT_EQ(arb.grant(mask(5, {4})).value(), 4u);
  EXPECT_EQ(arb.pointer(), 0u);
  EXPECT_EQ(arb.grant(mask(5, {1, 4})).value(), 1u);
  EXPECT_EQ(arb.pointer(), 2u);
  // Only requesters below the pointer: the scan wraps to find them.
  EXPECT_EQ(arb.grant(mask(5, {0})).value(), 0u);
  EXPECT_EQ(arb.pointer(), 1u);
}

TEST(RoundRobinArbiter, PointerWrapsAtSixtyFour) {
  // Exactly one full word: granting requester 63 wraps to 0.
  RoundRobinArbiter arb(64);
  EXPECT_EQ(arb.grant(mask(64, {63})).value(), 63u);
  EXPECT_EQ(arb.pointer(), 0u);
  EXPECT_EQ(arb.grant(mask(64, {0, 63})).value(), 0u);
  EXPECT_EQ(arb.grant(mask(64, {0, 63})).value(), 63u);
}

TEST(RoundRobinArbiter, MultiWordRotation) {
  // 88 requesters span two words. The scan starts mid-word, crosses into
  // the next word, wraps to word 0, and finally reaches the bits of the
  // pointer's own word below the pointer.
  RoundRobinArbiter arb(88);
  const auto reqs = mask(88, {3, 40, 64, 87});
  EXPECT_EQ(arb.grant(reqs).value(), 3u);
  EXPECT_EQ(arb.grant(reqs).value(), 40u);
  EXPECT_EQ(arb.grant(reqs).value(), 64u);
  EXPECT_EQ(arb.grant(reqs).value(), 87u);
  EXPECT_EQ(arb.pointer(), 0u);
  EXPECT_EQ(arb.grant(reqs).value(), 3u);
  // Pointer at 4 (word 0): the only requester left is below it in the
  // same word, so the scan goes all the way round.
  EXPECT_EQ(arb.grant(mask(88, {2})).value(), 2u);
  EXPECT_EQ(arb.pointer(), 3u);
  // Pointer at 3: requester 70 in word 1 beats 1 in word 0.
  EXPECT_EQ(arb.grant(mask(88, {1, 70})).value(), 70u);
  EXPECT_EQ(arb.pointer(), 71u);
  // Pointer at 71 (word 1): 65 sits below it in its own word, 10 in the
  // word after the wrap — 10 comes first.
  EXPECT_EQ(arb.grant(mask(88, {10, 65})).value(), 10u);
  EXPECT_EQ(arb.grant(mask(88, {65})).value(), 65u);
  EXPECT_FALSE(arb.grant(mask(88, {})).has_value());
  EXPECT_EQ(arb.pointer(), 66u);
}

TEST(RoundRobinArbiter, FairUnderSaturation) {
  const std::size_t n = 5;
  RoundRobinArbiter arb(n);
  std::vector<int> wins(n, 0);
  const auto all = mask(n, {0, 1, 2, 3, 4});
  for (int i = 0; i < 1000; ++i) {
    ++wins[arb.grant(all).value()];
  }
  for (const int w : wins) EXPECT_EQ(w, 200);
}

TEST(RoundRobinArbiter, FairUnderSaturationAcrossWords) {
  const std::size_t n = 130;
  RoundRobinArbiter arb(n);
  std::vector<std::uint64_t> all(request_words(n), ~std::uint64_t{0});
  all.back() = (std::uint64_t{1} << (n % 64)) - 1;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(arb.grant(all).value(), i);
    }
  }
}

TEST(Arbiter, PolicyDispatch) {
  Arbiter fixed(ArbiterKind::kFixedPriority, 3);
  Arbiter rr(ArbiterKind::kRoundRobin, 3);
  const auto all = mask(3, {0, 1, 2});
  EXPECT_EQ(fixed.grant(all).value(), 0u);
  EXPECT_EQ(fixed.grant(all).value(), 0u);
  EXPECT_EQ(rr.grant(all).value(), 0u);
  EXPECT_EQ(rr.grant(all).value(), 1u);
}

TEST(Arbiter, Names) {
  EXPECT_STREQ(arbiter_name(ArbiterKind::kFixedPriority), "fixed");
  EXPECT_STREQ(arbiter_name(ArbiterKind::kRoundRobin), "round-robin");
}

// Property: any single requester is always granted, for both policies.
class SingleRequesterSweep
    : public ::testing::TestWithParam<std::tuple<ArbiterKind, std::size_t>> {
};

TEST_P(SingleRequesterSweep, AlwaysGranted) {
  const auto [kind, n] = GetParam();
  Arbiter arb(kind, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto grant = arb.grant(mask(n, {i}));
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(*grant, i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SingleRequesterSweep,
    ::testing::Combine(::testing::Values(ArbiterKind::kFixedPriority,
                                         ArbiterKind::kRoundRobin),
                       ::testing::Values<std::size_t>(1, 2, 4, 6, 8, 64, 65,
                                                      88, 128)));

}  // namespace
}  // namespace xpl::switchlib
