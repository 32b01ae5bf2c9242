// Engine ablation: the tree-walking interpreter (the reference) vs the AOT
// jit (xtsoc::jit — actions lowered to C++, compiled to a shared object,
// dlopen'd).
//
// Both engines implement the same observable semantics, op counts
// included (checked in engines_test.cpp and jit_test.cpp); this bench
// measures the cost of each "manner" the model compiler may choose (paper
// §4), plus the jit's cold-compile (lowering and native compile) /
// warm-load cache split. The summary cross-checks the engines on a real
// workload before timing anything.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_json.hpp"
#include "models.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/verify/equivalence.hpp"

namespace {

using namespace xtsoc;
using runtime::ActionEngine;
using runtime::Value;

/// A scratch jit cache for this process, removed on exit so repeated bench
/// runs measure a genuinely cold compile.
class ScratchCache {
public:
  ScratchCache() {
    std::error_code ec;
    dir_ = (std::filesystem::temp_directory_path(ec) /
            ("xtsoc-jit-bench-" + std::to_string(::getpid())))
               .string();
  }
  ~ScratchCache() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::string& dir() const { return dir_; }

private:
  std::string dir_;
};

std::unique_ptr<runtime::Executor> run_soc(
    core::Project& project, ActionEngine engine, int packets, bool tracing,
    const runtime::CompiledActions* compiled = nullptr) {
  runtime::ExecutorConfig cfg;
  cfg.engine = engine;
  cfg.trace_enabled = tracing;
  cfg.compiled = compiled;
  auto exec = project.make_abstract_executor(cfg);
  auto sink = exec->create("Sink");
  auto crypto = exec->create_with("Crypto", {{"sink", Value(sink)}});
  auto cls = exec->create_with(
      "Classifier", {{"crypto", Value(crypto)}, {"sink", Value(sink)}});
  for (int i = 0; i < packets; ++i) {
    exec->inject(cls, "packet",
                 {Value(std::int64_t{16 + (i * 7) % 48}),
                  Value(static_cast<std::int64_t>(i))});
  }
  exec->run_all();
  return exec;
}

void print_summary() {
  std::printf("== engine ablation: AST walker vs jit ==\n");
  auto project =
      xtsoc::bench::make_project(xtsoc::bench::make_packet_soc(),
                                 marks::MarkSet{});
  ScratchCache cache;
  jit::JitOptions jopts;
  jopts.cache_dir = cache.dir();
  jit::JitResult jr = jit::compile(project->compiled(), jopts);
  if (jr.module == nullptr) {
    std::printf("  jit unavailable (%s) — only the walker is timed\n\n",
                jr.reason.c_str());
    return;
  }
  auto ast = run_soc(*project, ActionEngine::kAstWalk, 64, true);
  auto jat = run_soc(*project, ActionEngine::kJit, 64, true, jr.module.get());
  bool same = ast->trace().to_string() == jat->trace().to_string();
  std::printf("  cross-check on 64 packets: ast/jit traces %s (%zu events)\n",
              same ? "IDENTICAL" : "DIVERGED", ast->trace().size());
  std::printf("  ops: ast %llu, jit %llu\n",
              static_cast<unsigned long long>(ast->ops_executed()),
              static_cast<unsigned long long>(jat->ops_executed()));
  auto finals = verify::compare_final_states(ast->database(),
                                             {&jat->database()});
  std::printf("  final states: %s\n",
              finals.equivalent ? "IDENTICAL" : "DIVERGED");
  std::printf("  (timings below; the jit pays one native compile — then "
              "no per-node overhead)\n\n");
}

void BM_Engine(benchmark::State& state) {
  const ActionEngine engine =
      state.range(0) == 0 ? ActionEngine::kAstWalk : ActionEngine::kJit;
  auto project = xtsoc::bench::make_project(xtsoc::bench::make_packet_soc(),
                                            marks::MarkSet{});
  jit::JitResult jr;
  ScratchCache cache;
  if (engine == ActionEngine::kJit) {
    jit::JitOptions jopts;
    jopts.cache_dir = cache.dir();
    jr = jit::compile(project->compiled(), jopts);
    if (jr.module == nullptr) {
      state.SkipWithError(("jit unavailable: " + jr.reason).c_str());
      return;
    }
  }
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    auto exec =
        run_soc(*project, engine, 200, /*tracing=*/false, jr.module.get());
    dispatched += exec->dispatch_count();
  }
  state.counters["signals/s"] = benchmark::Counter(
      static_cast<double>(dispatched), benchmark::Counter::kIsRate);
  state.SetLabel(engine == ActionEngine::kAstWalk ? "ast" : "jit");
}
BENCHMARK(BM_Engine)->Arg(0)->Arg(1)->ArgNames({"engine"});

void emit_json() {
  xtsoc::bench::JsonReport report("engines");
  auto project = xtsoc::bench::make_project(xtsoc::bench::make_packet_soc(),
                                            marks::MarkSet{});

  // The jit pays its native compile once, into a scratch cache so this
  // process measures a true cold build; the second compile() must then be
  // a pure dlopen from the cache — both halves are reported so the
  // cold-vs-warm split is visible in CI.
  ScratchCache cache;
  jit::JitOptions jopts;
  jopts.cache_dir = cache.dir();
  xtsoc::bench::Timer t_cold;
  jit::JitResult jr = jit::compile(project->compiled(), jopts);
  const double cold_sec = t_cold.seconds();
  if (jr.module != nullptr) {
    report.add("jit_compile_sec", cold_sec, "s", "cache=cold");
    xtsoc::bench::Timer t_warm;
    jit::JitResult warm = jit::compile(project->compiled(), jopts);
    if (warm.module != nullptr && warm.cache_hit) {
      report.add("jit_load_sec", t_warm.seconds(), "s", "cache=warm");
    }
  } else {
    std::fprintf(stderr, "bench_engines: jit unavailable: %s\n",
                 jr.reason.c_str());
  }

  // Median of N: a single 500-packet run takes milliseconds, so one
  // scheduler preemption skews it badly, and a best-of-few row still moved
  // by 1.5x between runs on a noisy host. Each engine's row is the median
  // of 21 repetitions, with its interquartile range beside it as
  // signals_per_sec_noise_pct, so a diff can be read against the spread.
  // The engines' repetitions alternate, so a slow spell on a shared host
  // lands on both medians instead of on one side of the ratio. One
  // untimed warm-up run per engine brings code and model state into cache.
  constexpr int kReps = 21;
  struct Row {
    ActionEngine engine;
    const char* config;
    const runtime::CompiledActions* compiled;
    std::vector<double> rates;
  };
  std::vector<Row> rows = {
      {ActionEngine::kAstWalk, "engine=ast,packets=500,trace=off", nullptr,
       {}}};
  if (jr.module != nullptr) {
    rows.push_back({ActionEngine::kJit, "engine=jit,packets=500,trace=off",
                    jr.module.get(), {}});
  }
  for (const Row& row : rows) {
    (void)run_soc(*project, row.engine, 500, /*tracing=*/false, row.compiled);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (Row& row : rows) {
      xtsoc::bench::Timer t;
      auto exec =
          run_soc(*project, row.engine, 500, /*tracing=*/false, row.compiled);
      row.rates.push_back(static_cast<double>(exec->dispatch_count()) /
                          t.seconds());
    }
  }
  std::vector<double> medians;
  for (Row& row : rows) {
    const bench::Spread s = bench::spread(row.rates);
    report.add("signals_per_sec", s.median, "signals/s",
               std::string(row.config) + ",stat=median_of_21");
    report.add("signals_per_sec_noise_pct", s.noise_pct, "%",
               std::string(row.config) + ",stat=iqr_over_median");
    medians.push_back(s.median);
  }
  if (medians.size() == 2) {
    report.add("jit_speedup_vs_ast", medians[1] / medians[0], "x",
               "packets=500,trace=off,stat=median_of_21");
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  emit_json();
  if (xtsoc::bench::json_only(argc, argv)) return 0;
  print_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
