// Two-phase kernel semantics: order independence, signal commit timing.
#include "src/sim/kernel.hpp"

#include <gtest/gtest.h>

namespace xpl::sim {
namespace {

// A register stage: out <= in each cycle.
class Stage : public Module {
 public:
  Stage(std::string name, Signal<int>& in, Signal<int>& out)
      : Module(std::move(name)), in_(in), out_(out) {}
  void tick(Kernel&) override { out_.write(in_.read()); }

 private:
  Signal<int>& in_;
  Signal<int>& out_;
};

// A counter driving a signal.
class Counter : public Module {
 public:
  Counter(std::string name, Signal<int>& out)
      : Module(std::move(name)), out_(out) {}
  void tick(Kernel&) override { out_.write(++count_); }

 private:
  Signal<int>& out_;
  int count_ = 0;
};

TEST(Kernel, SignalHoldsUntilCommit) {
  Kernel k;
  auto& sig = k.make_signal<int>(0);
  sig.write(42);
  EXPECT_EQ(sig.read(), 0);  // not yet committed
  sig.commit();
  EXPECT_EQ(sig.read(), 42);
}

TEST(Kernel, SignalWithoutWriteKeepsValue) {
  Kernel k;
  auto& sig = k.make_signal<int>(7);
  sig.commit();
  EXPECT_EQ(sig.read(), 7);
}

TEST(Kernel, PipelineDelaysOneCyclePerStage) {
  Kernel k;
  auto& a = k.make_signal<int>(0);
  auto& b = k.make_signal<int>(0);
  auto& c = k.make_signal<int>(0);
  Counter src("src", a);
  Stage s1("s1", a, b);
  Stage s2("s2", b, c);
  k.add_module(src);
  k.add_module(s1);
  k.add_module(s2);

  // After n steps: a == n, b == n-1, c == n-2.
  k.run(5);
  EXPECT_EQ(a.read(), 5);
  EXPECT_EQ(b.read(), 4);
  EXPECT_EQ(c.read(), 3);
}

TEST(Kernel, ModuleOrderDoesNotChangeResults) {
  auto run_with_order = [](bool reversed) {
    Kernel k;
    auto& a = k.make_signal<int>(0);
    auto& b = k.make_signal<int>(0);
    auto& c = k.make_signal<int>(0);
    Counter src("src", a);
    Stage s1("s1", a, b);
    Stage s2("s2", b, c);
    if (reversed) {
      k.add_module(s2);
      k.add_module(s1);
      k.add_module(src);
    } else {
      k.add_module(src);
      k.add_module(s1);
      k.add_module(s2);
    }
    k.run(7);
    return std::tuple{a.read(), b.read(), c.read()};
  };
  EXPECT_EQ(run_with_order(false), run_with_order(true));
}

TEST(Kernel, CycleCounts) {
  Kernel k;
  EXPECT_EQ(k.cycle(), 0u);
  k.run(10);
  EXPECT_EQ(k.cycle(), 10u);
  k.step();
  EXPECT_EQ(k.cycle(), 11u);
}

TEST(Kernel, RunUntilStopsEarly) {
  Kernel k;
  auto& a = k.make_signal<int>(0);
  Counter src("src", a);
  k.add_module(src);
  const auto steps = k.run_until([&] { return a.read() >= 5; }, 100);
  EXPECT_EQ(steps, 5u);
  EXPECT_EQ(a.read(), 5);
}

TEST(Kernel, RunUntilHitsCap) {
  Kernel k;
  const auto steps = k.run_until([] { return false; }, 17);
  EXPECT_EQ(steps, 17u);
}

TEST(Kernel, CountsModulesAndSignals) {
  Kernel k;
  auto& a = k.make_signal<int>(0);
  auto& b = k.make_signal<int>(0);
  Stage s("s", a, b);
  k.add_module(s);
  EXPECT_EQ(k.module_count(), 1u);
  EXPECT_EQ(k.signal_count(), 2u);
}

}  // namespace
}  // namespace xpl::sim
