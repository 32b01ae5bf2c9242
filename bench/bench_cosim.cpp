// E5 — "The two halves are known to fit together because the interface was
// generated" (paper §4).
//
// Measures the partitioned system end to end:
//   * cross-boundary round-trip completion time vs bus latency (summary
//     table: the hw/sw crossover as software work grows),
//   * co-simulation throughput (cycles/s, signals/s).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "models.hpp"
#include "overhead.hpp"
#include "xtsoc/hwsim/pool.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/obs/registry.hpp"

namespace {

using namespace xtsoc;
using runtime::Value;

marks::MarkSet crypto_hw(int bus_latency) {
  marks::MarkSet m;
  m.mark_hardware("Crypto");
  m.set_domain_mark(marks::kBusLatency,
                    xtuml::ScalarValue(static_cast<std::int64_t>(bus_latency)));
  return m;
}

std::uint64_t run_packets(core::Project& project, int packets,
                          std::uint64_t sw_ops_per_cycle) {
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.sw_steps_per_cycle = 8;
  cfg.sw_ops_per_cycle = sw_ops_per_cycle;
  auto cs = project.make_cosim(cfg);
  auto sink = cs->create("Sink");
  auto crypto = cs->create_with("Crypto", {{"sink", Value(sink)}});
  auto cls = cs->create_with(
      "Classifier", {{"crypto", Value(crypto)}, {"sink", Value(sink)}});
  for (int i = 0; i < packets; ++i) {
    cs->inject(cls, "packet",
               {Value(std::int64_t{16 + (i * 7) % 48}),
                Value(static_cast<std::int64_t>(i))});
  }
  cs->run(10'000'000);
  return cs->cycles();
}

void print_summary() {
  std::printf("== E5: partitioned execution, generated interface ==\n");
  std::printf("completion cycles for 100 packets (sw core: 64 ops/cycle):\n");
  std::printf("  %12s %14s %18s\n", "bus latency", "all-software",
              "crypto-in-hw");
  auto sw_project =
      bench::make_project(bench::make_packet_soc(), marks::MarkSet{});
  for (int latency : {0, 2, 8, 32, 128}) {
    auto hw_project =
        bench::make_project(bench::make_packet_soc(), crypto_hw(latency));
    std::uint64_t sw_cycles = run_packets(*sw_project, 100, 64);
    std::uint64_t hw_cycles = run_packets(*hw_project, 100, 64);
    std::printf("  %12d %14llu %18llu%s\n", latency,
                static_cast<unsigned long long>(sw_cycles),
                static_cast<unsigned long long>(hw_cycles),
                hw_cycles < sw_cycles ? "  <- hw wins" : "");
  }
  std::printf("(the crossover: a slow enough bus erases the accelerator's "
              "advantage — the\n measurement-driven repartitioning loop of "
              "paper §1 in one table)\n\n");
}

void BM_CosimPackets(benchmark::State& state) {
  const int latency = static_cast<int>(state.range(0));
  auto project =
      bench::make_project(bench::make_packet_soc(), crypto_hw(latency));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cycles += run_packets(*project, 50, 64);
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CosimPackets)->Arg(0)->Arg(8)->Arg(32)->ArgNames({"latency"});

/// Round-trip signal latency through the bus, isolated: one token bounced
/// between a software stage and a hardware stage.
void BM_BoundaryRoundTrip(benchmark::State& state) {
  const int latency = static_cast<int>(state.range(0));
  marks::MarkSet m;
  m.mark_hardware("Stage1");
  m.set_domain_mark(marks::kBusLatency,
                    xtuml::ScalarValue(static_cast<std::int64_t>(latency)));
  auto project = bench::make_project(bench::make_relay_chain(2), std::move(m));
  std::uint64_t cycles = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    cosim::CoSimConfig cfg;
    cfg.trace_enabled = false;
    auto cs = project->make_cosim(cfg);
    auto s0 = cs->create("Stage0");
    auto s1 = cs->create("Stage1");
    cs->executor_of(s0.cls).database().set_attr(s0, AttributeId(1), Value(s1));
    cs->executor_of(s1.cls).database().set_attr(s1, AttributeId(1), Value(s0));
    cs->inject(s0, "token", {Value(std::int64_t{64})});
    cs->run(1'000'000);
    cycles += cs->cycles();
    hops += 64;
  }
  state.counters["cycles/hop"] =
      static_cast<double>(cycles) / static_cast<double>(hops);
}
BENCHMARK(BM_BoundaryRoundTrip)->Arg(0)->Arg(2)->Arg(8)->ArgNames({"latency"});

// --- mesh scaling workload (the windowed-parallelism benchmark) --------------
//
// width x height - 1 hardware classes, one per mesh tile (the CPU owns tile
// 0), each an independent clocked FSM that burns a fixed compute loop every
// cycle and occasionally pings its ring neighbour across the fabric. One
// hardware clock domain per tile means that many concurrently evaluable
// domains — the workload the `threads` knob is for. The 4-cycle link (see
// mesh_marks) lets the conservative-lookahead scheduler run each domain 4
// cycles per pool handshake; emit_json sweeps 2x2/4x4/8x8 x threads
// 1/2/4/8.

std::unique_ptr<xtuml::Domain> make_mesh_soc(int nodes) {
  using xtuml::DataType;
  xtuml::DomainBuilder b("MeshSoc");
  for (int i = 0; i < nodes; ++i) b.cls("Node" + std::to_string(i));
  for (int i = 0; i < nodes; ++i) {
    std::string peer = "Node" + std::to_string((i + 1) % nodes);
    b.edit("Node" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .attr("pings", DataType::kInt)
        .ref_attr("peer", peer)
        .event("tick")
        .event("ping", {{"v", DataType::kInt}})
        .state("Spin",
               "acc = self.acc;\n"
               "r = 0;\n"
               "while (r < 64)\n"
               "  acc = (acc * 33 + 7) % 65537;\n"
               "  r = r + 1;\n"
               "end while;\n"
               "self.acc = acc;\n"
               "if (acc % 16 == 0)\n"
               "  generate ping(v: acc) to self.peer;\n"
               "end if;\n"
               "generate tick() to self;")
        .state("Pinged",
               "self.pings = self.pings + param.v % 2;\n"
               "generate tick() to self;")
        .transition("Spin", "tick", "Spin")
        .transition("Spin", "ping", "Pinged")
        .transition("Pinged", "tick", "Spin")
        .transition("Pinged", "ping", "Pinged");
  }
  return b.take();
}

marks::MarkSet mesh_marks(int width, int height, int link_latency = 4) {
  marks::MarkSet m;
  const int nodes = width * height - 1;  // tile 0 is the CPU tile
  for (int i = 0; i < nodes; ++i) {
    std::string cls = "Node" + std::to_string(i);
    int tile = i + 1;
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     xtuml::ScalarValue(std::int64_t{tile % width}));
    m.set_class_mark(cls, marks::kTileY,
                     xtuml::ScalarValue(std::int64_t{tile / width}));
  }
  m.set_domain_mark(marks::kMeshWidth,
                    xtuml::ScalarValue(static_cast<std::int64_t>(width)));
  m.set_domain_mark(marks::kMeshHeight,
                    xtuml::ScalarValue(static_cast<std::int64_t>(height)));
  // A 4-cycle link gives the conservative-lookahead scheduler a 4-cycle
  // window: domains run 4 cycles per pool handshake instead of paying a
  // barrier per cycle. This is the knob the speedup depends on.
  m.set_domain_mark(marks::kLinkLatency,
                    xtuml::ScalarValue(static_cast<std::int64_t>(link_latency)));
  return m;
}

std::unique_ptr<cosim::CoSimulation> make_mesh_cosim(
    core::Project& project, int nodes, int threads,
    obs::Registry* obs = nullptr,
    runtime::ActionEngine engine = runtime::ActionEngine::kAstWalk,
    const runtime::CompiledActions* compiled = nullptr) {
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.threads = threads;
  cfg.obs = obs;
  cfg.engine = engine;
  cfg.compiled = compiled;
  auto cs = project.make_cosim(cfg);
  std::vector<runtime::InstanceHandle> handles;
  handles.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    handles.push_back(cs->create("Node" + std::to_string(i)));
  }
  for (int i = 0; i < nodes; ++i) {
    // peer is the third declared attribute (acc, pings, peer).
    cs->executor_of(handles[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(handles[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(handles[static_cast<std::size_t>((i + 1) % nodes)]));
    cs->inject(handles[static_cast<std::size_t>(i)], "tick");
  }
  return cs;
}

/// Steady-state mesh throughput at `threads`, in hardware cycles per
/// wall-clock second. When `phases` is non-null it receives the windowed
/// scheduler's per-phase wall-clock split for the whole run.
double mesh_cycles_per_sec(
    int width, int height, int threads, obs::Registry* obs = nullptr,
    runtime::ActionEngine engine = runtime::ActionEngine::kAstWalk,
    const runtime::CompiledActions* compiled = nullptr,
    cosim::CoSimulation::PhaseSeconds* phases = nullptr) {
  const int nodes = width * height - 1;
  auto project =
      bench::make_project(make_mesh_soc(nodes), mesh_marks(width, height));
  auto cs = make_mesh_cosim(*project, nodes, threads, obs, engine, compiled);
  cs->run_cycles(200);  // warm-up: pools and queues reach steady state
  std::uint64_t cycles = 0;
  bench::Timer t;
  while (t.seconds() < 0.4) {
    cs->run_cycles(500);
    cycles += 500;
  }
  if (phases != nullptr) *phases = cs->phase_seconds();
  return static_cast<double>(cycles) / t.seconds();
}

void BM_MeshCosim(benchmark::State& state) {
  constexpr int kWidth = 4, kHeight = 4;
  constexpr int kNodes = kWidth * kHeight - 1;
  const int threads = static_cast<int>(state.range(0));
  auto project =
      bench::make_project(make_mesh_soc(kNodes), mesh_marks(kWidth, kHeight));
  auto cs = make_mesh_cosim(*project, kNodes, threads);
  cs->run_cycles(200);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cs->run_cycles(500);
    cycles += 500;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshCosim)->Arg(1)->Arg(2)->Arg(8)->ArgNames({"threads"});

/// Empty pool generations, run(size, noop), back to back: the cost phase A
/// pays per window on top of its jobs. One sample is the mean over a batch
/// of kBatch generations (a single generation is a fraction of a
/// microsecond, and whether a worker claims before the caller has taken
/// every index makes it bimodal). Returns the median over kRounds samples,
/// in microseconds, and their interquartile range as a percentage of it.
bench::Spread pool_handshake(int workers) {
  constexpr int kRounds = 21;
  constexpr int kBatch = 1000;
  hwsim::WorkerPool pool(workers);
  const auto n = static_cast<std::size_t>(pool.size());
  auto noop = [](std::size_t) {};
  for (int i = 0; i < kBatch; ++i) pool.run(n, noop);  // warm-up
  std::vector<double> us(kRounds);
  for (double& sample : us) {
    bench::Timer t;
    for (int i = 0; i < kBatch; ++i) pool.run(n, noop);
    sample = t.seconds() * 1e6 / kBatch;
  }
  return bench::spread(std::move(us));
}

void emit_json() {
  bench::JsonReport report("cosim");
  // The phase-A worker pool's own cost: back-to-back empty generations,
  // so the workers are still spinning when the next one is published.
  for (int workers : {2, 3, 4}) {
    const std::string cfg = "workers=" + std::to_string(workers);
    const bench::Spread h = pool_handshake(workers);
    report.add("pool_handshake_us", h.median, "us", cfg);
    report.add("pool_handshake_noise_pct", h.noise_pct, "%",
               cfg + ",interquartile range / median");
  }
  // Scaling sweep: mesh size x thread count. parallel_efficiency is
  // speedup / threads — 1.0 means perfect scaling, and anything above
  // 1/threads means the extra threads helped at all. Two headline
  // "speedup" metrics feed the CI regression gates: 4x4 at 8 threads
  // (parity floor on any hardware) and 8x8 at 8 threads (the windowed
  // scheduler's >= 3x bar, gated only on runners with >= 8 cores). The
  // phaseA_pct/phaseB_pct rows record where the windowed scheduler's
  // wall-clock went, so the next perf investigation can see where the
  // Amdahl wall moved.
  double serial_4x4 = 0.0, par8_4x4 = 0.0;
  double serial_8x8 = 0.0, par8_8x8 = 0.0;
  for (int dim : {2, 4, 8}) {
    const std::string mesh =
        "mesh=" + std::to_string(dim) + "x" + std::to_string(dim);
    double serial = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      const std::string cfg = mesh + ",threads=" + std::to_string(threads);
      cosim::CoSimulation::PhaseSeconds phases;
      const double rate = mesh_cycles_per_sec(
          dim, dim, threads, nullptr, runtime::ActionEngine::kAstWalk,
          nullptr, &phases);
      report.add("cycles_per_sec", rate, "cycles/s", cfg);
      if (threads == 1) {
        serial = rate;
      } else {
        report.add("parallel_efficiency", rate / (serial * threads), "x", cfg);
      }
      if (dim == 8 && (threads == 1 || threads == 8)) {
        const double total = phases.boundary + phases.phase_a + phases.phase_b;
        if (total > 0) {
          report.add("phaseA_pct", 100.0 * phases.phase_a / total, "%", cfg);
          report.add("phaseB_pct", 100.0 * phases.phase_b / total, "%", cfg);
        }
      }
      if (dim == 4 && threads == 1) serial_4x4 = rate;
      if (dim == 4 && threads == 8) par8_4x4 = rate;
      if (dim == 8 && threads == 1) serial_8x8 = rate;
      if (dim == 8 && threads == 8) par8_8x8 = rate;
    }
  }
  report.add("speedup", par8_4x4 / serial_4x4, "x",
             "mesh=4x4,threads=8 vs threads=1");
  const double speedup8 = par8_8x8 / serial_8x8;
  report.add("speedup", speedup8, "x", "mesh=8x8,threads=8 vs threads=1");
  // The ROADMAP bar for the windowed scheduler: >= 3x at 8 threads on the
  // 8x8 mesh, where phase A fans 63 domains out and phase B is serial. A
  // speedup needs cores under the pool, so the gate is conditional on the
  // hardware rather than silently skipped — a single-core runner still
  // publishes the metric for the record.
  if (std::thread::hardware_concurrency() >= 8 && speedup8 < 3.0) {
    std::fprintf(stderr,
                 "bench_cosim: windowed 8x8 mesh speedup at 8 threads "
                 "regressed: %.2fx < 3x\n",
                 speedup8);
    report.write();
    std::exit(1);
  }
  {
    // Observability residue. With no registry every probe is a dead null
    // test; with a registry attached but tracing off, each span checks one
    // relaxed atomic and skips. The CI benchmarks job gates
    // obs_disabled_overhead_pct <= 2; bench/overhead.hpp explains how the
    // probe stays below that.
    constexpr int kNodes = 4 * 4 - 1;
    auto variant = [](bool attach, bool trace) {
      return bench::OverheadVariant{[attach, trace] {
        struct Probe {
          obs::Registry reg;
          std::unique_ptr<core::Project> proj;
          std::unique_ptr<cosim::CoSimulation> cs;
        };
        auto p = std::make_shared<Probe>();
        if (trace) p->reg.enable_tracing();
        p->proj = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
        p->cs = make_mesh_cosim(*p->proj, kNodes, 1,
                                attach ? &p->reg : nullptr);
        p->cs->run_cycles(200);  // warm-up
        return std::function<void()>([p] { p->cs->run_cycles(500); });
      }};
    };
    const std::vector<bench::Overhead> o = bench::measure_overhead(
        {variant(false, false), variant(true, false), variant(true, true)});
    report.add("obs_disabled_overhead_pct", o[0].pct, "%",
               "mesh=4x4,threads=1,registry attached vs absent");
    report.add("obs_disabled_noise_pct", o[0].noise_pct, "%",
               "mesh=4x4,threads=1,across-round spread");
    report.add("obs_tracing_overhead_pct", o[1].pct, "%",
               "mesh=4x4,threads=1,tracing on vs registry absent");
    report.add("obs_tracing_noise_pct", o[1].noise_pct, "%",
               "mesh=4x4,threads=1,across-round spread");
  }
  {
    // End-to-end engine rows: the same 4x4 mesh with actions run by the
    // AST walker vs the AOT-compiled jit module. The jit module is
    // content-addressed, so one compile (into a scratch cache removed
    // below) serves every cosim built from the same model. When the jit
    // is unavailable (no compiler) the rows are simply omitted — the
    // bench still reports, mirroring the runtime's fallback contract.
    std::error_code ec;
    const std::string cache_dir =
        (std::filesystem::temp_directory_path(ec) /
         ("xtsoc-jit-bench-cosim-" + std::to_string(::getpid())))
            .string();
    constexpr int kNodes = 4 * 4 - 1;
    auto project =
        bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
    jit::JitOptions jopts;
    jopts.cache_dir = cache_dir;
    jit::JitResult jr = jit::compile(project->compiled(), jopts);
    if (jr.module != nullptr) {
      for (int threads : {1, 8}) {
        const std::string cfg = "mesh=4x4,threads=" + std::to_string(threads);
        const double ast = mesh_cycles_per_sec(
            4, 4, threads, nullptr, runtime::ActionEngine::kAstWalk);
        const double jt =
            mesh_cycles_per_sec(4, 4, threads, nullptr,
                                runtime::ActionEngine::kJit, jr.module.get());
        report.add("cycles_per_sec", ast, "cycles/s", cfg + ",engine=ast");
        report.add("cycles_per_sec", jt, "cycles/s", cfg + ",engine=jit");
        report.add("jit_speedup_end_to_end", jt / ast, "x", cfg);
      }
    } else {
      std::fprintf(stderr, "bench_cosim: jit unavailable: %s\n",
                   jr.reason.c_str());
    }
    std::filesystem::remove_all(cache_dir, ec);
  }
  {
    auto project =
        bench::make_project(bench::make_packet_soc(), crypto_hw(8));
    bench::Timer t;
    std::uint64_t cycles = run_packets(*project, 100, 64);
    report.add("cycles_per_sec", static_cast<double>(cycles) / t.seconds(),
               "cycles/s", "packet_soc,latency=8,threads=1");
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
