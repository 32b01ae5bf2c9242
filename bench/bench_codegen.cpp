// E4 — "Repeatable mappings ... produce compilable text (e.g., C, VHDL)"
// (paper §4).
//
// Measures model-compiler throughput: lines of C / VHDL generated per
// second as the model scales, for each backend.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.hpp"
#include "models.hpp"

namespace {

using namespace xtsoc;

/// Synthetic model with half the classes marked hardware.
std::unique_ptr<core::Project> scaled_project(int classes) {
  auto domain = bench::make_synthetic(classes, 4);
  marks::MarkSet m;
  for (int i = 0; i < classes; i += 2) m.mark_hardware("C" + std::to_string(i));
  return bench::make_project(std::move(domain), std::move(m));
}

void BM_GenerateC(benchmark::State& state) {
  auto project = scaled_project(static_cast<int>(state.range(0)));
  std::size_t lines = 0;
  for (auto _ : state) {
    DiagnosticSink sink;
    codegen::Output out = project->generate_c(sink);
    lines += out.total_lines();
    benchmark::DoNotOptimize(out);
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateC)->Arg(4)->Arg(16)->Arg(64)->ArgNames({"classes"});

void BM_GenerateVhdl(benchmark::State& state) {
  auto project = scaled_project(static_cast<int>(state.range(0)));
  std::size_t lines = 0;
  for (auto _ : state) {
    DiagnosticSink sink;
    codegen::Output out = project->generate_vhdl(sink);
    lines += out.total_lines();
    benchmark::DoNotOptimize(out);
  }
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateVhdl)->Arg(4)->Arg(16)->Arg(64)->ArgNames({"classes"});

void print_summary() {
  std::printf("== E4: model compiler output, by model size ==\n");
  std::printf("  %8s %12s %12s %14s\n", "classes", "C lines", "VHDL lines",
              "total bytes");
  for (int classes : {4, 16, 64}) {
    auto project = scaled_project(classes);
    DiagnosticSink sink;
    codegen::Output c = project->generate_c(sink);
    codegen::Output v = project->generate_vhdl(sink);
    std::printf("  %8d %12zu %12zu %14zu\n", classes, c.total_lines(),
                v.total_lines(), c.total_bytes() + v.total_bytes());
  }
  std::printf("\n");
}

void emit_json() {
  xtsoc::bench::JsonReport report("codegen");
  auto project = scaled_project(16);
  {
    DiagnosticSink sink;
    bench::Timer t;
    std::size_t lines = 0;
    while (t.seconds() < 0.2) {
      codegen::Output out = project->generate_c(sink);
      lines += out.total_lines();
    }
    report.add("lines_per_sec", static_cast<double>(lines) / t.seconds(),
               "lines/s", "backend=c,classes=16");
  }
  {
    DiagnosticSink sink;
    bench::Timer t;
    std::size_t lines = 0;
    while (t.seconds() < 0.2) {
      codegen::Output out = project->generate_vhdl(sink);
      lines += out.total_lines();
    }
    report.add("lines_per_sec", static_cast<double>(lines) / t.seconds(),
               "lines/s", "backend=vhdl,classes=16");
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
