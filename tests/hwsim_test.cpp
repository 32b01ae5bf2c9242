#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "xtsoc/hwsim/kernel.hpp"
#include "xtsoc/hwsim/pool.hpp"

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

// --- WorkerPool --------------------------------------------------------------

/// Run `n` jobs on `pool`, each counting its own index, and expect every
/// index exactly once.
void expect_each_index_once(WorkerPool& pool, std::size_t n) {
  std::unique_ptr<std::atomic<int>[]> hits(new std::atomic<int>[n + 1]);
  for (std::size_t i = 0; i <= n; ++i) hits[i].store(0);
  pool.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
  }
  EXPECT_EQ(hits[n].load(), 0) << "n=" << n << ": an index past the end ran";
}

TEST(Pool, EveryIndexRunsExactlyOnce) {
  for (int workers : {1, 2, 3, 8}) {
    WorkerPool pool(workers);
    const auto size = static_cast<std::size_t>(pool.size());
    ASSERT_EQ(pool.size(), workers);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, size - 1, size,
                          size + 1, std::size_t{1000}}) {
      expect_each_index_once(pool, n);
    }
  }
}

TEST(Pool, SingleJobRunsOnTheCallingThread) {
  WorkerPool pool(4);
  std::thread::id ran_on;
  pool.run(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Pool, BackToBackGenerationsComplete) {
  // Tiny jobs back to back: a lost wake-up or a claim that lands in the
  // wrong generation shows as a hang or a wrong total.
  constexpr int kGenerations = 100'000;
  for (int workers : {2, 3, 8}) {
    WorkerPool pool(workers);
    const std::size_t n = static_cast<std::size_t>(workers) + 1;
    std::atomic<std::uint64_t> sum{0};
    std::uint64_t expected = 0;
    for (int g = 0; g < kGenerations; ++g) {
      pool.run(n, [&](std::size_t i) { sum.fetch_add(i + 1); });
      expected += n * (n + 1) / 2;
    }
    EXPECT_EQ(sum.load(), expected) << "workers=" << workers;
  }
}

TEST(Pool, JobWritesAreVisibleAfterRun) {
  // Plain, non-atomic writes: run() must order them before its return
  // (and TSan checks that it does).
  WorkerPool pool(3);
  std::vector<std::size_t> out(64);
  for (int round = 1; round <= 100; ++round) {
    pool.run(out.size(), [&](std::size_t i) { out[i] = i * round; });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * round);
    }
  }
}

TEST(Pool, LowestIndexErrorWins) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.run(100, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 37 || i == 80) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "run() swallowed the jobs' errors";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "37");
  }
  EXPECT_EQ(ran.load(), 100);  // the other jobs still ran
  expect_each_index_once(pool, 10);  // and the pool is still usable
}

TEST(Pool, TooManyJobsRejected) {
  WorkerPool pool(2);
  bool ran = false;
  EXPECT_THROW(pool.run(WorkerPool::kMaxJobs + 1, [&](std::size_t) {
    ran = true;
  }), std::length_error);
  EXPECT_FALSE(ran);
}

TEST(Pool, DestroyWhileWorkersPark) {
  auto pool = std::make_unique<WorkerPool>(4);
  expect_each_index_once(*pool, 16);
  // Long past the spin bound: every worker is parked in its wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pool.reset();
  SUCCEED();
}

TEST(Pool, DestroyWhileWorkersSpin) {
  for (int i = 0; i < 200; ++i) {
    WorkerPool pool(4);
    pool.run(8, [](std::size_t) {});
  }  // destroyed with its workers still spinning
  for (int i = 0; i < 200; ++i) {
    WorkerPool pool(4);  // destroyed before any run(), workers maybe unstarted
  }
  SUCCEED();
}

/// Threads of this process, or -1 where /proc/self/task is not available.
int thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (const auto& entry : it) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(Pool, SizeOneSpawnsNoThread) {
  const int before = thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  {
    WorkerPool one(1);
    EXPECT_EQ(thread_count(), before);
    std::thread::id ran_on;
    one.run(5, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
  {
    WorkerPool three(3);  // the probe itself counts threads
    EXPECT_EQ(thread_count(), before + 2);
  }
}

}  // namespace
}  // namespace xtsoc::hwsim
