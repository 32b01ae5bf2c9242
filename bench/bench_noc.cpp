// NoC fabric throughput and latency across mesh sizes.
//
// Measures the raw cycle-accurate mesh (no model on top): every tile
// streams frames to the diagonally opposite tile, the worst-case uniform
// pattern for XY routing (all routes cross the mesh center). Reported per
// mesh size (1x2 — the bus-equivalent degenerate case — then 2x2 and 4x4):
//   * simulated frames per wall-clock second (how fast the simulator is),
//   * mean end-to-end frame latency in fabric cycles (how congested the
//     mesh is — this is the number a placement change moves).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/noc/topology.hpp"
#include "xtsoc/noc/traffic.hpp"

namespace {

using namespace xtsoc;

struct NocRun {
  std::uint64_t cycles = 0;
  std::uint64_t frames = 0;
  double mean_latency = 0.0;
};

/// Send `frames_per_tile` frames from every tile to its opposite corner and
/// run the fabric dry.
NocRun pump_frames(int width, int height, int frames_per_tile,
                   int payload_bytes) {
  noc::FabricConfig cfg;
  cfg.width = width;
  cfg.height = height;
  noc::Fabric fabric(cfg);

  const int tiles = width * height;
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_bytes),
                                    0xab);
  std::uint64_t cycle = 0;
  for (int i = 0; i < frames_per_tile; ++i) {
    for (int t = 0; t < tiles; ++t) {
      int dst = tiles - 1 - t;
      if (dst == t) continue;
      fabric.send_frame(t, dst, static_cast<std::uint32_t>(i), payload, cycle);
    }
  }
  std::vector<noc::Delivery> due;
  while (!fabric.idle() && cycle < 10'000'000) {
    fabric.tick(++cycle);
    for (int t = 0; t < tiles; ++t) fabric.pop_due(t, cycle, due);
    due.clear();
  }

  noc::FabricStats stats = fabric.stats();
  NocRun run;
  run.cycles = cycle;
  run.frames = stats.frames_delivered;
  run.mean_latency = stats.latency.mean();
  return run;
}

/// One saturation-sweep point: drive a topology x routing fabric with a
/// synthetic pattern at a fixed offered load, then run the network dry.
struct SweepPoint {
  double offered = 0.0;     ///< frames offered per tile per cycle
  double throughput = 0.0;  ///< frames delivered per cycle (whole network)
  double mean_latency = 0.0;
  std::uint64_t delivered = 0;
};

SweepPoint run_sweep(noc::TopologyKind topology, noc::RoutePolicy routing,
                     noc::TrafficPattern pattern, double load, int width,
                     int height, int inject_cycles) {
  noc::FabricConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.topology = topology;
  cfg.routing = routing;
  noc::Fabric fabric(cfg);

  noc::TrafficSpec spec;
  spec.pattern = pattern;
  spec.seed = 42;
  spec.offered_load = load;
  spec.payload_bytes = 8;
  spec.hotspot_tile = 0;
  noc::TrafficGen gen(spec, fabric.topology());

  const int tiles = width * height;
  std::uint64_t cycle = 0;
  std::vector<noc::Delivery> due;
  for (int c = 0; c < inject_cycles; ++c) {
    gen.tick(fabric, cycle);
    fabric.tick(++cycle);
    for (int t = 0; t < tiles; ++t) fabric.pop_due(t, cycle, due);
    due.clear();
  }
  while (!fabric.idle() && cycle < static_cast<std::uint64_t>(inject_cycles) +
                                       100'000) {
    fabric.tick(++cycle);
    for (int t = 0; t < tiles; ++t) fabric.pop_due(t, cycle, due);
    due.clear();
  }

  noc::FabricStats stats = fabric.stats();
  SweepPoint p;
  p.offered = load;
  p.delivered = stats.frames_delivered;
  p.throughput =
      cycle == 0 ? 0.0
                 : static_cast<double>(stats.frames_delivered) /
                       static_cast<double>(cycle);
  p.mean_latency = stats.latency.mean();
  return p;
}

/// The (topology, routing) grid the sweep covers. Ring is 16x1 (same tile
/// count as the 4x4 benchmarks); mesh/torus run 8x8 so wraparound links
/// have distance to save.
struct SweepConfig {
  noc::TopologyKind topology;
  noc::RoutePolicy routing;
  int width, height;
};

constexpr SweepConfig kSweepGrid[] = {
    {noc::TopologyKind::kMesh, noc::RoutePolicy::kXY, 8, 8},
    {noc::TopologyKind::kMesh, noc::RoutePolicy::kYX, 8, 8},
    {noc::TopologyKind::kMesh, noc::RoutePolicy::kAdaptive, 8, 8},
    {noc::TopologyKind::kTorus, noc::RoutePolicy::kXY, 8, 8},
    {noc::TopologyKind::kTorus, noc::RoutePolicy::kAdaptive, 8, 8},
    {noc::TopologyKind::kRing, noc::RoutePolicy::kXY, 16, 1},
};

constexpr noc::TrafficPattern kSweepPatterns[] = {
    noc::TrafficPattern::kUniform,
    noc::TrafficPattern::kHotspot,
    noc::TrafficPattern::kTranspose,
    noc::TrafficPattern::kBursty,
};

constexpr double kSweepLoad = 0.05;
constexpr int kSweepInjectCycles = 512;

std::string sweep_config_label(const SweepConfig& c,
                               noc::TrafficPattern pattern, double load) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "topology=%s,routing=%s,pattern=%s,load=%.2f,shape=%dx%d",
                noc::to_string(c.topology), noc::to_string(c.routing),
                noc::to_string(pattern), load, c.width, c.height);
  return buf;
}

void print_summary() {
  std::printf("== NoC fabric: frames and latency vs mesh size ==\n");
  std::printf("opposite-corner traffic, 64 frames/tile, 16-byte frames:\n");
  std::printf("  %6s %8s %10s %14s %16s\n", "mesh", "frames", "cycles",
              "frames/cycle", "mean latency");
  for (auto [w, h] : {std::pair{1, 2}, {2, 2}, {4, 4}}) {
    NocRun run = pump_frames(w, h, 64, 16);
    std::printf("  %3dx%-2d %8llu %10llu %14.3f %16.2f\n", w, h,
                static_cast<unsigned long long>(run.frames),
                static_cast<unsigned long long>(run.cycles),
                static_cast<double>(run.frames) /
                    static_cast<double>(run.cycles),
                run.mean_latency);
  }
  std::printf("(larger meshes move more frames per cycle but each frame "
              "travels farther —\n the bisection-bandwidth/diameter tradeoff "
              "a placement must respect)\n\n");

  std::printf("== Saturation sweep: topology x routing x pattern ==\n");
  std::printf("synthetic traffic (seed 42), %d inject cycles, 8-byte "
              "frames, load=%.2f:\n",
              kSweepInjectCycles, kSweepLoad);
  std::printf("  %-6s %-9s %-10s %10s %14s %14s\n", "topo", "routing",
              "pattern", "delivered", "frames/cycle", "mean latency");
  for (const SweepConfig& c : kSweepGrid) {
    for (noc::TrafficPattern p : kSweepPatterns) {
      SweepPoint pt = run_sweep(c.topology, c.routing, p, kSweepLoad,
                                c.width, c.height, kSweepInjectCycles);
      std::printf("  %-6s %-9s %-10s %10llu %14.3f %14.2f\n",
                  noc::to_string(c.topology), noc::to_string(c.routing),
                  noc::to_string(p),
                  static_cast<unsigned long long>(pt.delivered),
                  pt.throughput, pt.mean_latency);
    }
  }

  std::printf("\nload curve, transpose pattern (mesh vs torus 8x8, XY):\n");
  std::printf("  %-6s", "load");
  for (double load : {0.02, 0.05, 0.10, 0.20}) std::printf(" %12.2f", load);
  std::printf("\n");
  for (auto [topo, name] :
       {std::pair{noc::TopologyKind::kMesh, "mesh"},
        std::pair{noc::TopologyKind::kTorus, "torus"}}) {
    std::printf("  %-6s", name);
    for (double load : {0.02, 0.05, 0.10, 0.20}) {
      SweepPoint pt =
          run_sweep(topo, noc::RoutePolicy::kXY,
                    noc::TrafficPattern::kTranspose, load, 8, 8,
                    kSweepInjectCycles);
      std::printf(" %12.2f", pt.mean_latency);
    }
    std::printf("  (mean latency)\n");
  }
  std::printf("(wraparound halves the average transpose path, so the torus "
              "saturates later —\n the latency gap CI gates on)\n\n");
}

void BM_NocFrames(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int height = static_cast<int>(state.range(1));
  std::uint64_t frames = 0;
  std::uint64_t cycles = 0;
  double mean_latency = 0.0;
  for (auto _ : state) {
    NocRun run = pump_frames(width, height, 32, 16);
    frames += run.frames;
    cycles += run.cycles;
    mean_latency = run.mean_latency;
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["mean_latency_cycles"] = mean_latency;
}
BENCHMARK(BM_NocFrames)
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({4, 4})
    ->ArgNames({"w", "h"});

/// Segmentation cost: same byte volume, different flit widths.
void BM_NocFlitWidth(benchmark::State& state) {
  const int flit_bytes = static_cast<int>(state.range(0));
  std::uint64_t frames = 0;
  for (auto _ : state) {
    noc::FabricConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.flit_payload_bytes = flit_bytes;
    noc::Fabric fabric(cfg);
    std::vector<std::uint8_t> payload(64, 0x5a);
    std::uint64_t cycle = 0;
    for (int i = 0; i < 32; ++i) {
      fabric.send_frame(0, 3, static_cast<std::uint32_t>(i), payload, cycle);
    }
    std::vector<noc::Delivery> due;
    while (!fabric.idle() && cycle < 1'000'000) {
      fabric.tick(++cycle);
      fabric.pop_due(3, cycle, due);
      due.clear();
    }
    frames += fabric.stats().frames_delivered;
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NocFlitWidth)->Arg(1)->Arg(4)->Arg(16)->ArgNames({"flit_bytes"});

/// The phase-B spine's fabric on its own: an 8x8 mesh with 4-cycle links
/// and 32-byte flits (perfbench `mesh_coherent`'s platform), fed seeded
/// uniform traffic at about 3 frames a cycle. As on the co-simulation's
/// spine, only the tiles the fabric lists as ready are popped. One sample
/// is the wall time of the run divided by the flits injected; the traffic
/// is drawn before the clock starts.
constexpr int kSpineCycles = 4000;

double spine_ns_per_flit(const noc::TraceReplay& traffic) {
  noc::FabricConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.link_latency = 4;
  cfg.flit_payload_bytes = 32;
  noc::Fabric fabric(cfg);
  noc::TraceReplay replay = traffic;
  std::vector<noc::Delivery> due;
  bench::Timer t;
  for (std::uint64_t cycle = 0; cycle < kSpineCycles;) {
    replay.tick(fabric, cycle);
    fabric.tick(++cycle);
    for (int tile : fabric.ready_tiles()) fabric.pop_due(tile, cycle, due);
    fabric.clear_ready_tiles();
    due.clear();
  }
  const double ns = t.seconds() * 1e9;
  return ns / static_cast<double>(fabric.stats().flits_injected);
}

noc::TraceReplay spine_traffic() {
  noc::FabricConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  noc::Fabric scratch(cfg);
  noc::TrafficSpec spec;
  spec.pattern = noc::TrafficPattern::kUniform;
  spec.seed = 7;
  spec.offered_load = 3.0 / 64;
  spec.payload_bytes = 16;
  spec.record = true;
  noc::TrafficGen gen(spec, scratch.topology());
  for (std::uint64_t cycle = 0; cycle < kSpineCycles; ++cycle) {
    gen.tick(scratch, cycle);
  }
  return noc::TraceReplay(gen.trace());
}

void emit_json() {
  bench::JsonReport report("noc");
  {
    const noc::TraceReplay traffic = spine_traffic();
    (void)spine_ns_per_flit(traffic);  // warm-up
    std::vector<double> samples;
    for (int i = 0; i < 21; ++i) samples.push_back(spine_ns_per_flit(traffic));
    const bench::Spread s = bench::spread(samples);
    const std::string config =
        "mesh=8x8,link_latency=4,flit_bytes=32,pattern=uniform,"
        "frames_per_cycle=3,payload=16B,cycles=" +
        std::to_string(kSpineCycles);
    report.add("fabric_ns_per_flit", s.median, "ns/flit", config);
    report.add("fabric_ns_per_flit_noise_pct", s.noise_pct, "%", config);
  }
  bench::Timer t;
  std::uint64_t frames = 0;
  std::uint64_t cycles = 0;
  double mean_latency = 0.0;
  while (t.seconds() < 0.3) {
    NocRun run = pump_frames(4, 4, 64, 16);
    frames += run.frames;
    cycles += run.cycles;
    mean_latency = run.mean_latency;
  }
  report.add("frames_per_sec", static_cast<double>(frames) / t.seconds(),
             "frames/s", "mesh=4x4,frames_per_tile=64,payload=16B");
  report.add("cycles_per_sec", static_cast<double>(cycles) / t.seconds(),
             "cycles/s", "mesh=4x4,frames_per_tile=64,payload=16B");
  report.add("mean_latency", mean_latency, "cycles",
             "mesh=4x4,opposite-corner traffic");

  // Saturation sweep: one (throughput, mean_latency) pair per
  // topology x routing x pattern point — the rows the CI benchmarks job
  // publishes and gates on (torus must beat mesh on transpose latency).
  for (const SweepConfig& c : kSweepGrid) {
    for (noc::TrafficPattern p : kSweepPatterns) {
      SweepPoint pt = run_sweep(c.topology, c.routing, p, kSweepLoad,
                                c.width, c.height, kSweepInjectCycles);
      const std::string label = sweep_config_label(c, p, kSweepLoad);
      report.add("sweep_throughput", pt.throughput, "frames/cycle", label);
      report.add("sweep_mean_latency", pt.mean_latency, "cycles", label);
    }
  }
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
