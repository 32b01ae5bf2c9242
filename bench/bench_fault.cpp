// xtsoc::fault — the cost of being injectable.
//
// Two claims are gated here:
//   * fault_disabled_overhead_pct: a co-simulation with NO fault plan (and
//     one with a zero-rate plan attached) must run at the no-fault
//     baseline — every probe on the hot path is a dead null/flag test.
//     CI gates this at <= 2%.
//   * with faults armed, the resilient transport (CRC, acks, retransmit
//     bookkeeping) costs real time; fault_armed_overhead_pct reports it
//     (informational, not gated — armed runs are opt-in).
// Plus campaign fan-out throughput (runs/s at 1 and 4 campaign threads).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "models.hpp"
#include "overhead.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"

namespace {

using namespace xtsoc;
using runtime::Value;

/// The bench_cosim mesh workload: ping-ponging hardware nodes on a mesh,
/// one class per tile, tile 0 reserved for software.
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

std::unique_ptr<cosim::CoSimulation> make_mesh_cosim(core::Project& project,
                                                     int nodes,
                                                     fault::Plan* plan) {
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.fault = plan;
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

fault::FaultSpec armed_spec() {
  fault::FaultSpec s;
  s.seed = 42;
  s.flit_drop = 0.01;
  s.flit_corrupt = 0.01;
  return s;
}

void emit_json() {
  bench::JsonReport report("fault");
  constexpr int kNodes = 4 * 4 - 1;
  {
    // Same probe method as bench_cosim's obs residue (bench/overhead.hpp):
    // fresh cosims per round in rotated construction order, alternating
    // best-of-N slices, the median across rounds.
    auto variant = [](fault::FaultSpec spec, bool attach) {
      return bench::OverheadVariant{[spec, attach] {
        struct Probe {
          fault::Plan plan;
          std::unique_ptr<core::Project> proj;
          std::unique_ptr<cosim::CoSimulation> cs;
        };
        auto p = std::shared_ptr<Probe>(new Probe{fault::Plan(spec), {}, {}});
        p->proj = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
        p->cs = make_mesh_cosim(*p->proj, kNodes, attach ? &p->plan : nullptr);
        p->cs->run_cycles(200);  // warm-up
        return std::function<void()>([p] { p->cs->run_cycles(500); });
      }};
    };
    fault::FaultSpec zero;  // attached but all-zero: the disabled path
    const std::vector<bench::Overhead> o = bench::measure_overhead(
        {variant(zero, false), variant(zero, true),
         variant(armed_spec(), true)});
    report.add("fault_disabled_overhead_pct", o[0].pct, "%",
               "mesh=4x4,zero-rate plan attached vs no plan");
    report.add("fault_disabled_noise_pct", o[0].noise_pct, "%",
               "mesh=4x4,across-round spread");
    report.add("fault_armed_overhead_pct", o[1].pct, "%",
               "mesh=4x4,drop+corrupt at 1% vs no plan");
    report.add("fault_armed_noise_pct", o[1].noise_pct, "%",
               "mesh=4x4,across-round spread");
  }
  {
    // Campaign fan-out throughput: 16 seeds over the 4x4 mesh workload.
    auto project = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
    auto one_run = [&](int index, std::uint64_t) {
      fault::Plan plan(fault::Campaign(armed_spec(), 16, 1).spec_for(index));
      auto cs = make_mesh_cosim(*project, kNodes, &plan);
      cs->run_cycles(500);
      return cosim::outcome_of(*cs, plan);
    };
    double secs_at[2] = {0.0, 0.0};
    int slot = 0;
    for (int threads : {1, 4}) {
      fault::Campaign campaign(armed_spec(), 16, threads);
      bench::Timer t;
      fault::CampaignResult r = campaign.run(one_run);
      secs_at[slot++] = t.seconds();
      report.add("campaign_runs_per_sec",
                 static_cast<double>(r.runs.size()) / t.seconds(), "runs/s",
                 "mesh=4x4,16 seeds,threads=" + std::to_string(threads));
    }
    const double speedup = secs_at[0] / secs_at[1];
    report.add("campaign_speedup_x", speedup, "x",
               "mesh=4x4,16 seeds,threads=4 vs threads=1");
    // The fan-out must actually scale — but only where the host can
    // express it. On fewer than 4 hardware threads the 4-thread campaign
    // degenerates to time-slicing and the ratio is noise, so the gate is
    // conditional on the hardware, not silently skipped: the metric is
    // emitted either way for the CI trend line.
    if (std::thread::hardware_concurrency() >= 4 && speedup < 1.5) {
      std::fprintf(stderr,
                   "bench_fault: FAIL: campaign speedup %.2fx < 1.5x at "
                   "threads=4 (%u hardware threads)\n",
                   speedup, std::thread::hardware_concurrency());
      report.write();
      std::exit(1);
    }
  }
  report.write();
}

void BM_FaultDisabled(benchmark::State& state) {
  constexpr int kNodes = 4 * 4 - 1;
  const bool attach = state.range(0) != 0;
  fault::FaultSpec zero;
  fault::Plan plan(zero);
  auto project = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
  auto cs = make_mesh_cosim(*project, kNodes, attach ? &plan : nullptr);
  for (auto _ : state) {
    cs->run_cycles(100);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FaultDisabled)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FaultArmed(benchmark::State& state) {
  constexpr int kNodes = 4 * 4 - 1;
  fault::Plan plan(armed_spec());
  auto project = bench::make_project(make_mesh_soc(kNodes), mesh_marks(4, 4));
  auto cs = make_mesh_cosim(*project, kNodes, &plan);
  for (auto _ : state) {
    cs->run_cycles(100);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FaultArmed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  emit_json();
  if (bench::json_only(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
