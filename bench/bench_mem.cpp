// Memory hierarchy cost model: cached vs uncached worlds on one workload.
//
// Drives mem::System directly (no model on top, like bench_noc drives the
// raw fabric): three executor tiles on a 2x2 mesh loop over per-tile
// working sets plus a small shared region, with the DRAM edge and the
// directory on the fourth tile. The same deterministic access tape runs
// against a mark-sized cache and against the uncached (sets=0) world, so
// the numbers isolate what the hierarchy buys:
//   * simulated cycles to drain the workload (the CI gate: a working set
//     that fits in cache must finish at least 2x sooner than uncached),
//   * miss rate and mean load-to-use latency,
//   * DRAM row-hit rate (bank/row locality the open-row policy exploits),
//   * coherence share of all fabric flits (what the protocol costs the NoC).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/mem/wire.hpp"
#include "xtsoc/noc/fabric.hpp"

namespace {

using namespace xtsoc;

struct MemRun {
  std::uint64_t cycles = 0;  ///< cycles until caches, DRAM and NoC drain
  mem::MemStats stats;
  std::uint64_t fabric_flits = 0;
};

/// The fixed workload: `rounds` passes over `working_lines` private lines
/// per tile plus one shared line per pass, one access per tile per cycle,
/// every fourth access a store. Runs until the timing pipeline is idle.
MemRun pump_workload(int sets, int rounds, int working_lines) {
  noc::FabricConfig fcfg;
  fcfg.width = 2;
  fcfg.height = 2;
  noc::Fabric fabric(fcfg);

  mem::MemConfig mcfg;
  mcfg.dram_tile = 3;
  mcfg.sets = sets;
  mcfg.ways = 2;
  mem::System sys(mcfg, &fabric);
  const int tiles[] = {0, 1, 2};
  for (int t : tiles) sys.add_domain(t, nullptr);

  std::uint64_t cycle = 0;
  auto step = [&] {
    sys.append_visible(cycle);
    ++cycle;
    fabric.tick(cycle);
    std::vector<mem::System::Incoming> delivered;
    for (int t : tiles) {
      std::vector<noc::Delivery> due;
      fabric.pop_due(t, cycle, due);
      for (noc::Delivery& d : due) {
        if (!mem::wire::is_coherence(d.opcode)) continue;
        delivered.push_back(
            mem::System::Incoming{t, d.opcode, std::move(d.payload)});
      }
    }
    sys.tick(cycle, delivered);
  };

  const std::int64_t line = mcfg.line_bytes;
  const std::int64_t shared_base = 1 << 20;  // far from every private set
  int access = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 0; s < working_lines; ++s) {
      for (int tag = 0; tag < 3; ++tag) {
        const std::int64_t addr = (tag * working_lines + s) * line;
        if (access % 4 == 0) {
          sys.write(tag, cycle, addr, access);
        } else {
          (void)sys.read(tag, cycle, addr);
        }
        ++access;
      }
      step();
    }
    // One shared-line read per tile per round: keeps the directory's
    // sharer tracking (and its flits) in the measurement.
    for (int tag = 0; tag < 3; ++tag) {
      (void)sys.read(tag, cycle, shared_base + (r % 2) * line);
    }
    step();
  }
  while ((!sys.idle() || !fabric.idle()) && cycle < 1'000'000) step();

  MemRun run;
  run.cycles = cycle;
  run.stats = sys.stats();
  run.fabric_flits = fabric.stats().flits_injected;
  return run;
}

constexpr int kRounds = 16;
constexpr int kWorkingLines = 8;  // fits a sets=16 x ways=2 cache easily
constexpr int kCachedSets = 16;

double miss_rate(const mem::MemStats& s) {
  const std::uint64_t accesses = s.hits + s.misses;
  return accesses == 0
             ? 0.0
             : static_cast<double>(s.misses) / static_cast<double>(accesses);
}

double row_hit_rate(const mem::MemStats& s) {
  const std::uint64_t dram = s.dram_reads + s.dram_writes;
  return dram == 0
             ? 0.0
             : static_cast<double>(s.dram_row_hits) / static_cast<double>(dram);
}

double coh_flit_share(const MemRun& r) {
  return r.fabric_flits == 0
             ? 0.0
             : static_cast<double>(r.stats.coh_flits) /
                   static_cast<double>(r.fabric_flits);
}

void print_summary() {
  std::printf("== Memory hierarchy: cached vs uncached on one tape ==\n");
  std::printf("2x2 mesh, 3 tiles, %d rounds x %d lines/tile + shared:\n",
              kRounds, kWorkingLines);
  std::printf("  %-9s %8s %10s %12s %10s %10s\n", "config", "cycles",
              "miss rate", "load-to-use", "row hits", "coh flits");
  for (int sets : {kCachedSets, 0}) {
    MemRun run = pump_workload(sets, kRounds, kWorkingLines);
    std::printf("  %-9s %8llu %9.1f%% %12.2f %9.1f%% %9.1f%%\n",
                sets > 0 ? "cached" : "uncached",
                static_cast<unsigned long long>(run.cycles),
                100.0 * miss_rate(run.stats), run.stats.mean_load_use(),
                100.0 * row_hit_rate(run.stats), 100.0 * coh_flit_share(run));
  }
  std::printf("(the cached world pays compulsory misses once and then hits; "
              "uncached pays a\n directory round-trip per access — the gap "
              "the CI speedup gate pins)\n\n");
}

void BM_MemWorkload(benchmark::State& state) {
  const int sets = static_cast<int>(state.range(0));
  std::uint64_t cycles = 0;
  std::uint64_t accesses = 0;
  double latency = 0.0;
  for (auto _ : state) {
    MemRun run = pump_workload(sets, kRounds, kWorkingLines);
    cycles += run.cycles;
    accesses += run.stats.loads + run.stats.stores;
    latency = run.stats.mean_load_use();
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["accesses/s"] = benchmark::Counter(
      static_cast<double>(accesses), benchmark::Counter::kIsRate);
  state.counters["mean_load_use_cycles"] = latency;
}
BENCHMARK(BM_MemWorkload)->Arg(16)->Arg(0)->ArgNames({"sets"});

void emit_json() {
  bench::JsonReport report("mem");
  std::uint64_t cycles_of[2] = {0, 0};  // [cached, uncached]
  int i = 0;
  for (int sets : {kCachedSets, 0}) {
    MemRun run = pump_workload(sets, kRounds, kWorkingLines);
    char cfg[64];
    std::snprintf(cfg, sizeof cfg, "sets=%d,ways=2,rounds=%d,lines=%d", sets,
                  kRounds, kWorkingLines);
    const std::string label(cfg);
    report.add("drain_cycles", static_cast<double>(run.cycles), "cycles",
               label);
    report.add("miss_rate", miss_rate(run.stats), "misses/access", label);
    report.add("mean_load_use", run.stats.mean_load_use(), "cycles", label);
    report.add("dram_row_hit_rate", row_hit_rate(run.stats), "hits/access",
               label);
    report.add("coh_flit_share", coh_flit_share(run), "flits/flit", label);
    cycles_of[i++] = run.cycles;
  }
  // The gated number: simulated time saved by the cache on a workload that
  // fits in it. CI requires >= 2.
  report.add("speedup_cached_vs_uncached",
             cycles_of[0] == 0 ? 0.0
                               : static_cast<double>(cycles_of[1]) /
                                     static_cast<double>(cycles_of[0]),
             "x", "uncached drain_cycles / cached drain_cycles");
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  emit_json();
  if (bench::json_only(argc, argv)) return 0;
  print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
