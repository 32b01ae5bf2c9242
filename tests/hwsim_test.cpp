#include <gtest/gtest.h>

#include <algorithm>

#include "clocked_counter.hpp"
#include "xtsoc/hwsim/kernel.hpp"
#include "xtsoc/hwsim/vcd.hpp"

namespace xtsoc::hwsim {
namespace {

TEST(Kernel, WireWidthMasking) {
  Simulator sim;
  HwSignalId w = sim.wire(4, 0xff);
  EXPECT_EQ(sim.read(w), 0xfu);  // init masked to width
  sim.poke(w, 0x12);
  EXPECT_EQ(sim.read(w), 0x2u);
  EXPECT_EQ(sim.width_of(w), 4);
}

TEST(Kernel, BadWidthRejected) {
  Simulator sim;
  EXPECT_THROW(sim.wire(0), SimError);
  EXPECT_THROW(sim.wire(65), SimError);
  EXPECT_NO_THROW(sim.wire(64));
}

TEST(Kernel, InvalidWireIdRejected) {
  Simulator sim;
  EXPECT_THROW(sim.read(HwSignalId(5)), SimError);
  EXPECT_THROW(sim.read(HwSignalId::invalid()), SimError);
}

TEST(Kernel, CombinationalPropagation) {
  // c = a AND b as a combinational process.
  Simulator sim;
  HwSignalId a = sim.wire(1);
  HwSignalId b = sim.wire(1);
  HwSignalId c = sim.wire(1);
  sim.combinational({a, b}, [a, b, c](Simulator& s) {
    s.nba_write(c, s.read(a) & s.read(b));
  });
  sim.settle();
  EXPECT_EQ(sim.read(c), 0u);
  sim.poke(a, 1);
  sim.poke(b, 1);
  sim.settle();
  EXPECT_EQ(sim.read(c), 1u);
  sim.poke(b, 0);
  sim.settle();
  EXPECT_EQ(sim.read(c), 0u);
}

TEST(Kernel, CombinationalChainSettlesAcrossDeltas) {
  // y = not x; z = not y  — two deltas to propagate.
  Simulator sim;
  HwSignalId x = sim.wire(1);
  HwSignalId y = sim.wire(1);
  HwSignalId z = sim.wire(1);
  sim.combinational({x}, [x, y](Simulator& s) { s.nba_write(y, !s.read(x)); });
  sim.combinational({y}, [y, z](Simulator& s) { s.nba_write(z, !s.read(y)); });
  sim.settle();
  EXPECT_EQ(sim.read(y), 1u);
  EXPECT_EQ(sim.read(z), 0u);
  sim.poke(x, 1);
  sim.settle();
  EXPECT_EQ(sim.read(y), 0u);
  EXPECT_EQ(sim.read(z), 1u);
}

TEST(Kernel, OscillatingLoopDetected) {
  // x = not x oscillates forever; the kernel must detect it.
  Simulator sim;
  HwSignalId x = sim.wire(1);
  sim.combinational({x}, [x](Simulator& s) { s.nba_write(x, !s.read(x)); });
  EXPECT_THROW(sim.settle(), SimError);
}

TEST(Kernel, ClockTogglesAndCountsPosedges) {
  Simulator sim;
  HwSignalId clk = sim.wire(1, 0, "clk");
  sim.add_clock(clk, 5);
  sim.advance(5);  // toggle to 1 (posedge #1)
  EXPECT_EQ(sim.read(clk), 1u);
  EXPECT_EQ(sim.posedge_count(clk), 1u);
  sim.advance(5);  // toggle to 0
  EXPECT_EQ(sim.read(clk), 0u);
  EXPECT_EQ(sim.posedge_count(clk), 1u);
  sim.advance(10);  // full period: posedge #2
  EXPECT_EQ(sim.posedge_count(clk), 2u);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Kernel, ZeroHalfPeriodRejected) {
  Simulator sim;
  HwSignalId clk = sim.wire(1);
  EXPECT_THROW(sim.add_clock(clk, 0), SimError);
}

TEST(Kernel, ClockedProcessRunsOncePerEdge) {
  Simulator sim;
  HwSignalId clk = sim.wire(1);
  sim.add_clock(clk, 1);
  int runs = 0;
  sim.on_posedge(clk, [&runs](Simulator&) { ++runs; });
  sim.run_cycles(clk, 7);
  EXPECT_EQ(runs, 7);
}

TEST(Kernel, NbaWriteNotVisibleUntilCommit) {
  // A clocked swap: a <=> b works because reads happen before commits.
  Simulator sim;
  HwSignalId clk = sim.wire(1);
  sim.add_clock(clk, 1);
  HwSignalId a = sim.wire(8, 1);
  HwSignalId b = sim.wire(8, 2);
  sim.on_posedge(clk, [a, b](Simulator& s) {
    s.nba_write(a, s.read(b));
    s.nba_write(b, s.read(a));
  });
  sim.run_cycles(clk, 1);
  EXPECT_EQ(sim.read(a), 2u);
  EXPECT_EQ(sim.read(b), 1u);
  sim.run_cycles(clk, 1);
  EXPECT_EQ(sim.read(a), 1u);
  EXPECT_EQ(sim.read(b), 2u);
}

TEST(Kernel, StatsAccumulate) {
  Simulator sim;
  HwSignalId clk = sim.wire(1);
  sim.add_clock(clk, 1);
  testing::clocked_counter(sim, clk, 8);
  sim.run_cycles(clk, 3);
  EXPECT_GT(sim.stats().delta_cycles, 0u);
  EXPECT_GT(sim.stats().process_activations, 0u);
  EXPECT_GT(sim.stats().wire_commits, 0u);
}

// Property sweep: a counter after N cycles reads N (mod 2^width).
class CounterSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CounterSweep, ValueMatchesCycleCount) {
  auto [width, cycles] = GetParam();
  Simulator sim;
  HwSignalId clk = sim.wire(1);
  sim.add_clock(clk, 1);
  HwSignalId counter = testing::clocked_counter(sim, clk, width);
  sim.run_cycles(clk, cycles);
  std::uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  EXPECT_EQ(sim.read(counter), cycles & mask);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLengths, CounterSweep,
    ::testing::Combine(::testing::Values(1, 4, 8, 16),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{10},
                                         std::uint64_t{100})));

}  // namespace
}  // namespace xtsoc::hwsim
