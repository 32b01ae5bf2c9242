// xtsoc::snap — what a checkpoint buys.
//
// Two claims are gated here (the acceptance numbers of the snap
// subsystem):
//   * restore is cheap: snap_restore_latency_ms is the cost of
//     re-elaborating + load_state, the per-seed price a warm campaign
//     pays in place of re-simulating the warm-up prefix;
//   * warm campaigns beat cold re-elaboration by >= 5x on the 4x4-mesh
//     16-seed fault campaign (campaign_runs_per_sec warm vs cold). The
//     gate is enforced HERE, in-process — the ratio is per-run work
//     (restore+250 cycles vs elaborate+6250 cycles), independent of host
//     parallelism, so it holds on a 1-core CI runner too.
// Exactness is asserted alongside the speedup: the warm document must be
// byte-identical to the cold one, or the speedup is measuring a different
// computation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "models.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/snap/snapshot.hpp"
#include "xtsoc/snap/warm.hpp"

namespace {

using namespace xtsoc;
using runtime::Value;

/// Ping-ponging hardware nodes on a 4x4 mesh, one class per tile, tile 0
/// reserved for software. Unlike the bench_fault stressor, this workload
/// is steady-state by construction: each node keeps exactly one tick
/// circulating (receiving a ping does NOT mint another — the tick issued
/// by the last Spin execution is still in flight), so traffic, event
/// population, and live NoC state are flat in cycle count. That is the
/// premise a warm campaign monetizes — the checkpoint is O(live state),
/// not O(history) — and it mirrors the realistic shape: campaigns warm up
/// into steady state, they don't snapshot a diverging backlog.
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
        // 63 iterations, not 64: the affine map x -> 33x+7 mod 65537 has
        // power-of-two order (the group order is 2^16), so composing it
        // 2^6 times collapses the orbit to period 32 where acc % 16 == 0
        // hits ~8x too often and the ping rate saturates NIC injection.
        // An odd composition count keeps the full orbit and the intended
        // ~1/16 rate — the steady-state premise above depends on it.
        .state("Spin",
               "acc = self.acc;\n"
               "r = 0;\n"
               "while (r < 63)\n"
               "  acc = (acc * 33 + 7) % 65537;\n"
               "  r = r + 1;\n"
               "end while;\n"
               "self.acc = acc;\n"
               "if (acc % 16 == 0)\n"
               "  generate ping(v: acc) to self.peer;\n"
               "end if;\n"
               "generate tick() to self;")
        .state("Pinged",
               "self.pings = self.pings + param.v % 2;")
        .transition("Spin", "tick", "Spin")
        .transition("Spin", "ping", "Pinged")
        .transition("Pinged", "tick", "Spin")
        .transition("Pinged", "ping", "Pinged");
  }
  return b.take();
}

marks::MarkSet mesh_marks(int width, int height) {
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
  m.set_domain_mark(marks::kLinkLatency, xtuml::ScalarValue(std::int64_t{4}));
  return m;
}

constexpr int kNodes = 4 * 4 - 1;
constexpr int kRuns = 16;
// The campaign shape: a long shared warm-up, a short injection tail. The
// fault window opens after the checkpoint (the warm-exactness
// precondition), which is also the realistic shape — faults are
// interesting once the system is in steady state, not during boot.
constexpr std::uint64_t kWarmCycles = 6000;
constexpr std::uint64_t kRunCycles = 250;
constexpr std::uint64_t kWindowStart = 6000;

/// Create + wire + kick the mesh population on an existing co-simulation.
void populate_mesh(cosim::CoSimulation& cs) {
  std::vector<runtime::InstanceHandle> handles;
  handles.reserve(static_cast<std::size_t>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    handles.push_back(cs.create("Node" + std::to_string(i)));
  }
  for (int i = 0; i < kNodes; ++i) {
    // peer is the third declared attribute (acc, pings, peer).
    cs.executor_of(handles[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(handles[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(handles[static_cast<std::size_t>((i + 1) % kNodes)]));
    cs.inject(handles[static_cast<std::size_t>(i)], "tick");
  }
}

fault::FaultSpec campaign_spec() {
  fault::FaultSpec s;
  s.seed = 42;
  s.flit_drop = 0.01;
  s.flit_corrupt = 0.01;
  s.window_start = kWindowStart;
  return s;
}

void emit_json() {
  bench::JsonReport report("snap");
  auto project = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
  const mapping::MappedSystem& sys = project->system();

  {
    // Snapshot mechanics: size, save cost, restore latency (restore =
    // re-elaborate + load_state, the warm path's per-seed cost). One save
    // or restore takes milliseconds, so a single preemption skews a
    // single sample: each row is the median of 21 repetitions, with its
    // interquartile range beside it.
    fault::Plan plan(campaign_spec());
    cosim::CoSimConfig cfg;
    cfg.trace_enabled = false;
    cfg.fault = &plan;
    cosim::CoSimulation cs(sys, cfg);
    populate_mesh(cs);
    cs.run_cycles(kWarmCycles);
    constexpr int kReps = 21;
    std::vector<std::uint8_t> bytes;
    std::vector<double> save_ms;
    for (int i = 0; i < kReps; ++i) {
      bench::Timer t;
      bytes = snap::save(cs, &plan, nullptr);
      save_ms.push_back(t.seconds() * 1e3);
    }
    report.add("snap_snapshot_kb",
               static_cast<double>(bytes.size()) / 1024.0, "KiB",
               "mesh=4x4,cycle=6000");
    std::vector<double> restore_ms;
    for (int i = 0; i < kReps; ++i) {
      fault::Plan p(campaign_spec());
      cosim::CoSimConfig rcfg;
      rcfg.trace_enabled = false;
      rcfg.fault = &p;
      bench::Timer t;
      cosim::CoSimulation fresh(sys, rcfg);
      snap::restore(fresh, bytes.data(), bytes.size(), &p, nullptr);
      restore_ms.push_back(t.seconds() * 1e3);
    }
    const struct {
      const char* metric;
      const char* config;
      const std::vector<double>& ms;
    } rows[] = {
        {"snap_save", "mesh=4x4,cycle=6000", save_ms},
        {"snap_restore_latency", "mesh=4x4,cycle=6000,elaborate+load_state",
         restore_ms},
    };
    for (const auto& row : rows) {
      const bench::Spread s = bench::spread(row.ms);
      report.add(std::string(row.metric) + "_ms", s.median, "ms",
                 std::string(row.config) + ",stat=median_of_21");
      report.add(std::string(row.metric) + "_noise_pct", s.noise_pct, "%",
                 std::string(row.config) + ",stat=iqr_over_median");
    }
  }

  // Cold vs warm 16-seed campaign over the same span. Cold pays
  // (elaborate + 6250 cycles) per seed; warm pays (restore + 250 cycles)
  // per seed after a one-time checkpoint build.
  const fault::FaultSpec spec = campaign_spec();
  fault::CampaignResult cold_result;
  double cold_secs = 0.0;
  {
    fault::Campaign campaign(spec, kRuns, 1);
    bench::Timer t;
    cold_result = campaign.run([&](int index, std::uint64_t) {
      fault::Plan plan(campaign.spec_for(index));
      cosim::CoSimConfig cfg;
      cfg.trace_enabled = false;
      cfg.fault = &plan;
      cosim::CoSimulation cs(sys, cfg);
      populate_mesh(cs);
      cs.run_cycles(kWarmCycles + kRunCycles);
      return cosim::outcome_of(cs, plan);
    });
    cold_secs = t.seconds();
    report.add("campaign_runs_per_sec", kRuns / cold_secs, "runs/s",
               "mesh=4x4,16 seeds,cold");
  }

  fault::CampaignResult warm_result;
  double warm_secs = 0.0;
  {
    bench::Timer setup_t;
    cosim::CoSimConfig wcfg;
    wcfg.trace_enabled = false;
    snap::WarmCampaign warm(sys, wcfg, spec, kWarmCycles, kRunCycles,
                            populate_mesh);
    report.add("snap_warm_setup_ms", setup_t.seconds() * 1e3, "ms",
               "mesh=4x4,one-time checkpoint build");
    bench::Timer t;
    warm_result = warm.run(kRuns, 1);
    warm_secs = t.seconds();
    report.add("campaign_runs_per_sec", kRuns / warm_secs, "runs/s",
               "mesh=4x4,16 seeds,warm");
  }

  // Exactness first: a speedup over a different computation is not a
  // speedup. Then the >= 5x gate.
  if (warm_result.to_snapshot().to_json(2) !=
      cold_result.to_snapshot().to_json(2)) {
    std::fprintf(stderr,
                 "bench_snap: FAIL: warm campaign document differs from "
                 "cold — warm-start exactness broken\n");
    std::exit(1);
  }
  const double speedup = cold_secs / warm_secs;
  report.add("snap_warm_speedup_x", speedup, "x",
             "mesh=4x4,16 seeds,warm vs cold");
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "bench_snap: FAIL: warm campaign speedup %.2fx < 5x gate\n",
                 speedup);
    report.write();  // leave the evidence on disk either way
    std::exit(1);
  }
  report.write();
}

void BM_SnapRestore(benchmark::State& state) {
  auto project = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
  const mapping::MappedSystem& sys = project->system();
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cosim::CoSimulation cs(sys, cfg);
  populate_mesh(cs);
  cs.run_cycles(static_cast<std::uint64_t>(state.range(0)));
  const std::vector<std::uint8_t> bytes = snap::save(cs);
  for (auto _ : state) {
    cosim::CoSimulation fresh(sys, cfg);
    snap::restore(fresh, bytes.data(), bytes.size());
    benchmark::DoNotOptimize(fresh.cycles());
  }
}
BENCHMARK(BM_SnapRestore)->Arg(500)->Arg(1750)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  emit_json();
  if (bench::json_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
