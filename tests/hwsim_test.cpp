#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "xtsoc/hwsim/kernel.hpp"

namespace xtsoc::hwsim {
namespace {

/// One edge committing `writes` as a single domain's batch.
void edge(Simulator& sim, const std::vector<WireWrite>& writes = {}) {
  const std::vector<WireWrite>* batch = &writes;
  sim.edge({&batch, 1});
}

/// `edges` edges, each committing `counter` + 1: a clocked up-counter.
void count_edges(Simulator& sim, HwSignalId counter, std::uint64_t edges) {
  for (std::uint64_t k = 0; k < edges; ++k) {
    edge(sim, {{counter, sim.read(counter) + 1}});
  }
}

TEST(Kernel, WireWidthMasking) {
  Simulator sim;
  sim.clock();
  HwSignalId w = sim.wire(4, 0xff);
  EXPECT_EQ(sim.read(w), 0xfu);  // init masked to width
  edge(sim, {{w, 0x12}});
  EXPECT_EQ(sim.read(w), 0x2u);  // committed value masked to width
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
  sim.clock();
  EXPECT_THROW(edge(sim, {{HwSignalId(5), 1}}), SimError);
}

TEST(Kernel, MasterClockRequiredAndUnique) {
  Simulator sim;
  EXPECT_THROW(edge(sim), SimError);
  sim.clock();
  EXPECT_THROW(sim.clock(), SimError);
  EXPECT_NO_THROW(edge(sim));
}

TEST(Kernel, ClockTogglesAndCountsPosedges) {
  Simulator sim;
  HwSignalId clk = sim.clock();
  EXPECT_EQ(sim.name_of(clk), "clk");
  EXPECT_EQ(sim.read(clk), 0u);
  edge(sim);  // rises at time 1
  EXPECT_EQ(sim.read(clk), 1u);
  EXPECT_EQ(sim.posedge_count(clk), 1u);
  EXPECT_EQ(sim.now(), 1u);
  edge(sim);  // falls at 2, rises at 3
  EXPECT_EQ(sim.read(clk), 1u);
  EXPECT_EQ(sim.posedge_count(clk), 2u);
  EXPECT_EQ(sim.now(), 3u);
  EXPECT_EQ(sim.stats().wire_commits, 3u);  // rise, fall, rise
}

TEST(Kernel, DataWirePosedgesCountRisingCommitsOnly) {
  Simulator sim;
  sim.clock();
  HwSignalId busy = sim.wire(1);
  HwSignalId bus = sim.wire(8);
  const std::uint64_t clock_commits = 2 * 5 - 1;
  for (std::uint64_t v : {1u, 1u, 0u, 1u, 0u}) {
    edge(sim, {{busy, v}, {bus, v}});
  }
  EXPECT_EQ(sim.posedge_count(busy), 2u);
  EXPECT_EQ(sim.posedge_count(bus), 0u);  // only 1-bit wires have edges
  // The repeated 1 commits nothing: 4 changes per wire.
  EXPECT_EQ(sim.stats().wire_commits, clock_commits + 4 + 4);
}

TEST(Kernel, EdgeActivatesEachDomainOnce) {
  Simulator sim;
  sim.clock();
  edge(sim);  // nothing is clocked yet: no delta cycle
  EXPECT_EQ(sim.stats().delta_cycles, 0u);
  sim.add_domain();
  sim.add_domain();
  for (int k = 0; k < 7; ++k) edge(sim);
  EXPECT_EQ(sim.stats().delta_cycles, 7u);
  EXPECT_EQ(sim.stats().process_activations, 14u);
}

TEST(Kernel, StatsAccumulate) {
  Simulator sim;
  sim.clock();
  sim.add_domain();
  HwSignalId counter = sim.wire(8, 0, "counter");
  count_edges(sim, counter, 3);
  EXPECT_EQ(sim.stats().delta_cycles, 3u);
  EXPECT_EQ(sim.stats().process_activations, 3u);
  EXPECT_EQ(sim.stats().wire_commits, 5u + 3u);  // clock + counter
}

// Property sweep: a counter after N cycles reads N (mod 2^width).
class CounterSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CounterSweep, ValueMatchesCycleCount) {
  auto [width, cycles] = GetParam();
  Simulator sim;
  sim.clock();
  HwSignalId counter = sim.wire(width);
  count_edges(sim, counter, cycles);
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
