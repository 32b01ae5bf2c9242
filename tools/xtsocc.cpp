// xtsocc — the xtsoc model compiler, as a command-line tool.
//
//   xtsocc MODEL.xtm [options]
//
//   -m, --marks FILE    marks file (sticky notes; default: no marks,
//                       everything maps to software)
//   -o, --out DIR       write generated sources under DIR (sw/ and hw/)
//       --c-only        generate only the software partition
//       --vhdl-only     generate only the hardware partition
//       --check         stop after compile + map (exit status reports
//                       model/marks validity)
//       --simulate FILE run a stimulus script against the abstract model
//                       (exit status reflects its expectations)
//       --on-cosim      run against the partitioned cosim. With --simulate
//                       the script drives it; without, a short bring-up run
//                       (64 cycles, no stimulus) exercises the partitioned
//                       system — useful with --obs-trace / --obs=snapshot
//       --threads N     cosim worker threads for --on-cosim (default 1 =
//                       the domains run one after another; N > 1 runs
//                       whole domains in parallel per window; any N
//                       produces byte-identical results)
//       --window N      cosim execution window in cycles for --on-cosim:
//                       0 (default) = auto, the interconnect's full static
//                       lookahead; 1 runs one cycle per window; values
//                       above the lookahead are clamped down (correctness
//                       bound)
//       --engine ENG    action engine for --on-cosim: ast (the tree-walking
//                       reference, also the default) or jit (AOT-compile
//                       the model's actions to a native shared object;
//                       falls back to ast with a warning when
//                       unavailable). Engines are byte-identical by
//                       contract, op counts included — jit only changes
//                       speed. See docs/PERF.md
//       --jit-cache DIR jit shared-object cache directory (default:
//                       ~/.cache/xtsoc/jit; requires --engine=jit)
//       --obs LIST      comma-separated observability sections to print
//                       (default: summary):
//                         summary   partition/interface summary
//                         noc       NoC statistics table (--on-cosim, mesh)
//                         snapshot  full cosim stats report as JSON
//                                   (--on-cosim; see docs/FORMAT.md)
//                         none      print nothing (excludes all others)
//       --obs-trace FILE  record a Chrome trace-event / Perfetto JSON of
//                       the cosim run to FILE (--on-cosim; load in
//                       ui.perfetto.dev or chrome://tracing)
//       --faults FILE   marks file with fault keys (faultSeed, faultRate.*,
//                       faultWindow; may be the same file as -m). Attaches a
//                       deterministic fault plan to the cosim run
//                       (--on-cosim; see docs/FAULTS.md)
//       --campaign N    run an N-seed fault-injection campaign instead of a
//                       single run (requires --faults). Each run gets a seed
//                       derived from faultSeed; --threads fans runs out in
//                       parallel. Prints the campaign JSON document. Without
//                       --simulate, a faultWindow.start of S (0 < S < 512)
//                       runs the shared fault-free first S cycles once and
//                       restores every seed from that checkpoint; the
//                       document is identical to the cold one
//       --campaign-out FILE  write the campaign JSON to FILE instead of
//                       stdout (requires --campaign)
//       --checkpoint-out FILE  write a versioned snapshot of the finished
//                       cosim run to FILE (--on-cosim; docs/CHECKPOINT.md).
//                       Restoring it resumes byte-identically at any
//                       --threads/--window setting
//       --restore FILE  instead of starting from cycle 0, load the snapshot
//                       FILE into the freshly elaborated cosim and continue
//                       (--on-cosim; model + marks must match the save)
//       --run-cycles N  cycles to run for the --on-cosim bring-up / after
//                       --restore (default 64)
//   -h, --help          this text
//
// Exit status: 0 on success, 1 on invalid model/marks/usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "xtsoc/core/project.hpp"
#include "xtsoc/core/stimulus.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/obs/registry.hpp"
#include "xtsoc/obs/snapshot.hpp"
#include "xtsoc/snap/snapshot.hpp"
#include "xtsoc/snap/warm.hpp"

namespace fs = std::filesystem;
using namespace xtsoc;

namespace {

struct Options {
  std::string model_path;
  std::string marks_path;
  std::string out_dir;
  bool c_only = false;
  bool vhdl_only = false;
  bool check_only = false;
  std::string simulate_path;
  bool on_cosim = false;
  int threads = 1;
  int window = 0;

  // --engine family. Empty engine means "not given": the cosim runs on its
  // built-in default and the report never grows an "engines" section.
  std::string engine;        ///< "", "ast" or "jit"
  std::string jit_cache_dir;  ///< --jit-cache override (empty = default)

  // --obs family, as parsed. Contradictions are diagnosed centrally in
  // validate_options(), not at parse time.
  bool obs_given = false;  ///< an explicit --obs LIST appeared
  bool obs_none = false;
  bool obs_summary = false;
  bool obs_noc = false;
  bool obs_snapshot = false;
  std::string obs_trace_path;

  // --faults / --campaign family (fault injection; docs/FAULTS.md).
  std::string faults_path;
  int campaign = 0;  ///< 0 = no campaign; N > 0 = N-seed campaign
  std::string campaign_out_path;

  // Checkpoint family (docs/CHECKPOINT.md).
  std::string checkpoint_out_path;
  std::string restore_path;
  std::uint64_t run_cycles = 64;
  bool saw_run_cycles_flag = false;

  // Whether --threads/--window were typed, for the cross-flag checks.
  bool saw_threads_flag = false;
  bool saw_window_flag = false;

  // Effective settings, derived by validate_options().
  bool print_summary = true;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: xtsocc MODEL.xtm [-m MARKS] [-o OUTDIR] [--c-only] "
               "[--vhdl-only] [--check] [--obs LIST] [--simulate FILE] "
               "[--on-cosim [--threads N] [--window N] "
               "[--engine ast|jit [--jit-cache DIR]] [--obs-trace FILE] "
               "[--faults FILE [--campaign N [--campaign-out FILE]]]\n"
               "              [--checkpoint-out FILE] [--restore FILE] "
               "[--run-cycles N]]\n"
               "       --obs sections: summary,noc,snapshot,none "
               "(default: summary)\n");
}

bool parse_obs_list(const std::string& list, Options* opt) {
  std::size_t pos = 0;
  opt->obs_given = true;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string tok = list.substr(pos, comma - pos);
    if (tok == "summary") {
      opt->obs_summary = true;
    } else if (tok == "noc") {
      opt->obs_noc = true;
    } else if (tok == "snapshot") {
      opt->obs_snapshot = true;
    } else if (tok == "none") {
      opt->obs_none = true;
    } else {
      std::fprintf(stderr,
                   "xtsocc: unknown --obs section '%s' (expected "
                   "summary, noc, snapshot or none)\n",
                   tok.c_str());
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "-h" || a == "--help") {
      usage(stdout);
      std::exit(0);
    } else if (a == "-m" || a == "--marks") {
      const char* v = next();
      if (!v) return false;
      opt->marks_path = v;
    } else if (a == "-o" || a == "--out") {
      const char* v = next();
      if (!v) return false;
      opt->out_dir = v;
    } else if (a == "--c-only") {
      opt->c_only = true;
    } else if (a == "--vhdl-only") {
      opt->vhdl_only = true;
    } else if (a == "--check") {
      opt->check_only = true;
    } else if (a == "--simulate") {
      const char* v = next();
      if (!v) return false;
      opt->simulate_path = v;
    } else if (a == "--on-cosim") {
      opt->on_cosim = true;
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return false;
      opt->threads = std::atoi(v);
      opt->saw_threads_flag = true;
      if (opt->threads < 1) {
        std::fprintf(stderr, "xtsocc: --threads needs a positive integer\n");
        return false;
      }
    } else if (a == "--window") {
      const char* v = next();
      if (!v) return false;
      opt->window = std::atoi(v);
      opt->saw_window_flag = true;
      if (opt->window < 0) {
        std::fprintf(stderr, "xtsocc: --window needs a non-negative integer "
                             "(0 = auto)\n");
        return false;
      }
    } else if (a == "--engine" || a.rfind("--engine=", 0) == 0) {
      std::string v;
      if (a == "--engine") {
        const char* n = next();
        if (!n) return false;
        v = n;
      } else {
        v = a.substr(std::strlen("--engine="));
      }
      if (v != "ast" && v != "jit") {
        std::fprintf(stderr,
                     "xtsocc: unknown --engine '%s' (expected ast or jit)\n",
                     v.c_str());
        return false;
      }
      opt->engine = v;
    } else if (a == "--jit-cache" || a.rfind("--jit-cache=", 0) == 0) {
      if (a == "--jit-cache") {
        const char* v = next();
        if (!v) return false;
        opt->jit_cache_dir = v;
      } else {
        opt->jit_cache_dir = a.substr(std::strlen("--jit-cache="));
      }
      if (opt->jit_cache_dir.empty()) {
        std::fprintf(stderr, "xtsocc: --jit-cache needs a directory\n");
        return false;
      }
    } else if (a == "--obs" || a.rfind("--obs=", 0) == 0) {
      std::string list;
      if (a == "--obs") {
        const char* v = next();
        if (!v) return false;
        list = v;
      } else {
        list = a.substr(std::strlen("--obs="));
      }
      if (!parse_obs_list(list, opt)) return false;
    } else if (a == "--obs-trace" || a.rfind("--obs-trace=", 0) == 0) {
      if (a == "--obs-trace") {
        const char* v = next();
        if (!v) return false;
        opt->obs_trace_path = v;
      } else {
        opt->obs_trace_path = a.substr(std::strlen("--obs-trace="));
      }
      if (opt->obs_trace_path.empty()) {
        std::fprintf(stderr, "xtsocc: --obs-trace needs a file name\n");
        return false;
      }
    } else if (a == "--faults" || a.rfind("--faults=", 0) == 0) {
      if (a == "--faults") {
        const char* v = next();
        if (!v) return false;
        opt->faults_path = v;
      } else {
        opt->faults_path = a.substr(std::strlen("--faults="));
      }
      if (opt->faults_path.empty()) {
        std::fprintf(stderr, "xtsocc: --faults needs a file name\n");
        return false;
      }
    } else if (a == "--campaign" || a.rfind("--campaign=", 0) == 0) {
      std::string v;
      if (a == "--campaign") {
        const char* n = next();
        if (!n) return false;
        v = n;
      } else {
        v = a.substr(std::strlen("--campaign="));
      }
      opt->campaign = std::atoi(v.c_str());
      if (opt->campaign < 1) {
        std::fprintf(stderr, "xtsocc: --campaign needs a positive run count\n");
        return false;
      }
    } else if (a == "--campaign-out" || a.rfind("--campaign-out=", 0) == 0) {
      if (a == "--campaign-out") {
        const char* v = next();
        if (!v) return false;
        opt->campaign_out_path = v;
      } else {
        opt->campaign_out_path = a.substr(std::strlen("--campaign-out="));
      }
      if (opt->campaign_out_path.empty()) {
        std::fprintf(stderr, "xtsocc: --campaign-out needs a file name\n");
        return false;
      }
    } else if (a == "--checkpoint-out" || a.rfind("--checkpoint-out=", 0) == 0) {
      if (a == "--checkpoint-out") {
        const char* v = next();
        if (!v) return false;
        opt->checkpoint_out_path = v;
      } else {
        opt->checkpoint_out_path = a.substr(std::strlen("--checkpoint-out="));
      }
      if (opt->checkpoint_out_path.empty()) {
        std::fprintf(stderr, "xtsocc: --checkpoint-out needs a file name\n");
        return false;
      }
    } else if (a == "--restore" || a.rfind("--restore=", 0) == 0) {
      if (a == "--restore") {
        const char* v = next();
        if (!v) return false;
        opt->restore_path = v;
      } else {
        opt->restore_path = a.substr(std::strlen("--restore="));
      }
      if (opt->restore_path.empty()) {
        std::fprintf(stderr, "xtsocc: --restore needs a file name\n");
        return false;
      }
    } else if (a == "--run-cycles" || a.rfind("--run-cycles=", 0) == 0) {
      std::string v;
      if (a == "--run-cycles") {
        const char* n = next();
        if (!n) return false;
        v = n;
      } else {
        v = a.substr(std::strlen("--run-cycles="));
      }
      const long long n = std::atoll(v.c_str());
      if (n < 1) {
        std::fprintf(stderr, "xtsocc: --run-cycles needs a positive count\n");
        return false;
      }
      opt->run_cycles = static_cast<std::uint64_t>(n);
      opt->saw_run_cycles_flag = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "xtsocc: unknown option '%s'\n", a.c_str());
      return false;
    } else if (opt->model_path.empty()) {
      opt->model_path = a;
    } else {
      std::fprintf(stderr, "xtsocc: extra argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// The one place flag combinations are checked. parse_args() only records
/// what was typed; every cross-flag rule (and the derived effective
/// settings) lives here, so contradictions get a diagnostic instead of a
/// silent last-one-wins.
bool validate_options(Options* opt) {
  auto fail = [](const char* msg) {
    std::fprintf(stderr, "xtsocc: %s\n", msg);
    return false;
  };

  if (opt->model_path.empty()) return fail("no model file given");
  if (opt->c_only && opt->vhdl_only) {
    return fail("--c-only and --vhdl-only are exclusive");
  }
  if (opt->check_only && !opt->simulate_path.empty()) {
    return fail("--check contradicts --simulate (--check stops after "
                "compile + map)");
  }
  if (opt->obs_none &&
      (opt->obs_summary || opt->obs_noc || opt->obs_snapshot)) {
    return fail("--obs=none excludes every other --obs section");
  }
  if (!opt->on_cosim) {
    if (opt->obs_noc) return fail("--obs=noc requires --on-cosim");
    if (opt->obs_snapshot) return fail("--obs=snapshot requires --on-cosim");
    if (!opt->obs_trace_path.empty()) {
      return fail("--obs-trace requires --on-cosim");
    }
    if (opt->saw_threads_flag) return fail("--threads requires --on-cosim");
    if (opt->saw_window_flag) return fail("--window requires --on-cosim");
    if (!opt->engine.empty()) {
      return fail("--engine requires --on-cosim (the abstract simulator "
                  "always runs the reference engine)");
    }
    if (!opt->faults_path.empty()) {
      return fail("--faults requires --on-cosim (faults are injected into "
                  "the partitioned interconnect)");
    }
    if (opt->campaign > 0) return fail("--campaign requires --on-cosim");
    if (!opt->checkpoint_out_path.empty()) {
      return fail("--checkpoint-out requires --on-cosim (snapshots capture "
                  "the partitioned co-simulation)");
    }
    if (!opt->restore_path.empty()) {
      return fail("--restore requires --on-cosim");
    }
    if (opt->saw_run_cycles_flag) {
      return fail("--run-cycles requires --on-cosim");
    }
  }
  if (!opt->restore_path.empty() && !opt->simulate_path.empty()) {
    return fail("--restore contradicts --simulate (a restored run continues "
                "for --run-cycles; scripts start from cycle 0)");
  }
  if (opt->saw_run_cycles_flag && !opt->simulate_path.empty()) {
    return fail("--run-cycles contradicts --simulate (the script drives the "
                "run length)");
  }
  if (opt->campaign > 0 && opt->faults_path.empty()) {
    return fail("--campaign requires --faults (a campaign without a fault "
                "plan would be N identical fault-free runs)");
  }
  if (!opt->campaign_out_path.empty() && opt->campaign == 0) {
    return fail("--campaign-out requires --campaign");
  }
  if (!opt->jit_cache_dir.empty() && opt->engine != "jit") {
    return fail("--jit-cache requires --engine=jit");
  }
  if (opt->campaign > 0 && !opt->engine.empty()) {
    return fail("--engine contradicts --campaign (campaign rows always run "
                "the pinned reference engine)");
  }
  if (opt->campaign > 0) {
    // The per-run --obs surfaces describe ONE run; a campaign is many.
    // Its output is the campaign JSON document itself.
    if (!opt->obs_trace_path.empty()) {
      return fail("--obs-trace contradicts --campaign (a trace describes "
                  "one run; campaigns emit the campaign JSON instead)");
    }
    if (!opt->checkpoint_out_path.empty()) {
      return fail("--checkpoint-out contradicts --campaign (a snapshot "
                  "captures one run; campaigns elaborate per seed)");
    }
    if (!opt->restore_path.empty()) {
      return fail("--restore contradicts --campaign");
    }
    if (opt->obs_noc || opt->obs_snapshot) {
      return fail("--obs sections other than summary/none contradict "
                  "--campaign (per-run reports vs. an N-run campaign)");
    }
  }

  // Effective summary setting: on by default; an explicit --obs list is
  // authoritative (--obs=none names no summary).
  opt->print_summary = !opt->obs_given || opt->obs_summary;
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Print the requested --obs sections for a finished co-simulation.
void emit_obs_reports(const cosim::CoSimulation& cs, const Options& opt) {
  if (opt.obs_noc) {
    if (!cs.has_fabric()) {
      std::printf(
          "(no NoC: model has no tileX/tileY marks, legacy bus "
          "interconnect used)\n");
    } else {
      std::printf("%s", cs.fabric().stats().to_table().c_str());
    }
  }
  if (opt.obs_snapshot) {
    std::printf("%s\n", cs.report().to_json(2).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt) || !validate_options(&opt)) {
    usage(stderr);
    return 1;
  }

  std::string model_text;
  if (!read_file(opt.model_path, &model_text)) {
    std::fprintf(stderr, "xtsocc: cannot read model '%s'\n",
                 opt.model_path.c_str());
    return 1;
  }
  std::string marks_text;
  if (!opt.marks_path.empty() && !read_file(opt.marks_path, &marks_text)) {
    std::fprintf(stderr, "xtsocc: cannot read marks '%s'\n",
                 opt.marks_path.c_str());
    return 1;
  }

  DiagnosticSink sink;
  auto project = core::Project::from_xtm(model_text, marks_text, sink);
  if (!project) {
    std::fprintf(stderr, "%s", sink.to_string().c_str());
    std::fprintf(stderr, "xtsocc: '%s' rejected\n", opt.model_path.c_str());
    return 1;
  }
  for (const auto& d : sink.all()) {
    if (d.severity == Severity::kWarning) {
      std::fprintf(stderr, "%s\n", d.to_string().c_str());
    }
  }

  if (opt.print_summary) std::printf("%s", project->summary().c_str());
  if (opt.check_only) return 0;

  if (!opt.simulate_path.empty() || opt.on_cosim) {
    // The registry records spans only, so it exists only for --obs-trace.
    // Without it cfg.obs stays null and every probe in the stack is a dead
    // null-check.
    std::unique_ptr<obs::Registry> reg;
    if (!opt.obs_trace_path.empty()) {
      reg = std::make_unique<obs::Registry>();
      reg->enable_tracing(true);
    }
    cosim::CoSimConfig cfg;
    cfg.threads = opt.threads;
    cfg.window = opt.window;
    cfg.obs = reg.get();

    // --engine: ast is the walker, the reference; jit AOT-compiles the
    // model and falls back to ast when unavailable — a warning plus the
    // reason in the report's "engines" section, never an error. Both
    // engines are byte-identical by contract, so a run that never asked
    // for an engine never mentions one.
    jit::JitResult jit_result;  // owns the module for the cosim's lifetime
    if (!opt.engine.empty()) {
      cfg.engine_status.requested = opt.engine;
      cfg.engine_status.active = "ast";
      if (opt.engine == "jit") {
        jit::JitOptions jopts;
        jopts.cache_dir = opt.jit_cache_dir;
        jit_result = jit::compile(project->compiled(), jopts);
        if (jit_result.module != nullptr) {
          cfg.engine = runtime::ActionEngine::kJit;
          cfg.compiled = jit_result.module.get();
          cfg.engine_status.active = "jit";
          cfg.engine_status.digest = jit_result.digest;
          cfg.engine_status.cache_hit = jit_result.cache_hit;
        } else {
          cfg.engine_status.fallback_reason = jit_result.reason;
          std::fprintf(stderr,
                       "xtsocc: warning: jit unavailable (%s); running on "
                       "the AST walker\n",
                       jit_result.reason.c_str());
        }
      }
    }

    // --faults: the fault marks file reuses the .marks syntax and the
    // central validator, so a typo'd key or an out-of-range rate gets the
    // same diagnostics as -m (it may in fact BE the -m file). The run takes
    // only the fault keys from it, onto the -m platform, so the rules that
    // span both (adaptive routing against NoC fault rates) are checked on
    // that combination too.
    fault::FaultSpec fault_spec;
    std::unique_ptr<fault::Plan> fault_plan;
    if (!opt.faults_path.empty()) {
      std::string faults_text;
      if (!read_file(opt.faults_path, &faults_text)) {
        std::fprintf(stderr, "xtsocc: cannot read faults '%s'\n",
                     opt.faults_path.c_str());
        return 1;
      }
      DiagnosticSink fsink;
      marks::MarkSet fmarks = marks::MarkSet::from_text(faults_text, fsink);
      if (fmarks.validate(project->domain(), fsink)) {
        marks::MarkSet platform = project->marks();
        for (const char* key : fault::kKeys) {
          if (auto v = fmarks.domain_mark(key)) {
            platform.set_domain_mark(key, *v);
          } else {
            platform.clear_domain_mark(key);
          }
        }
        DiagnosticSink psink;
        if (!platform.validate(project->domain(), psink)) {
          for (const auto& d : psink.all()) {
            if (d.severity == Severity::kError) {
              fsink.error(d.code, d.message, d.loc);
            }
          }
        }
      }
      if (fsink.has_errors()) {
        std::fprintf(stderr, "%s", fsink.to_string().c_str());
        std::fprintf(stderr, "xtsocc: faults '%s' rejected\n",
                     opt.faults_path.c_str());
        return 1;
      }
      for (const auto& d : fsink.all()) {
        if (d.severity == Severity::kWarning) {
          std::fprintf(stderr, "%s\n", d.to_string().c_str());
        }
      }
      fault_spec = fault::FaultSpec::from_marks(fmarks);
      if (opt.campaign == 0) {
        fault_plan = std::make_unique<fault::Plan>(fault_spec);
        cfg.fault = fault_plan.get();
      }
    }

    if (opt.campaign > 0) {
      std::string script;
      if (!opt.simulate_path.empty() &&
          !read_file(opt.simulate_path, &script)) {
        std::fprintf(stderr, "xtsocc: cannot read script '%s'\n",
                     opt.simulate_path.c_str());
        return 1;
      }
      const bool scripted = !opt.simulate_path.empty();
      // Each run executes under a pinned per-run config (one worker
      // thread, auto window): a campaign row must depend only on the
      // model, the marks and its seed — never on host execution knobs.
      // --threads scales how many runs execute concurrently instead, and
      // every thread count produces the identical campaign document.
      //
      // A stimulus-free run draws nothing before faultWindow.start, so its
      // first S cycles are the same for every seed: run them once and
      // restore each seed from that checkpoint (snap::WarmCampaign).
      constexpr std::uint64_t kCampaignCycles = 512;
      const std::uint64_t warm = fault_spec.window_start;
      const bool warm_start = !scripted && warm > 0 && warm < kCampaignCycles;
      fault::Campaign campaign(fault_spec, opt.campaign, opt.threads);
      fault::CampaignResult result;
      try {
        if (warm_start) {
          snap::WarmCampaign wc(project->system(), {}, fault_spec, warm,
                                kCampaignCycles - warm,
                                [](cosim::CoSimulation&) {});
          result = wc.run(opt.campaign, opt.threads);
        } else {
          result = campaign.run([&](int index, std::uint64_t) {
            fault::Plan plan(campaign.spec_for(index));
            cosim::CoSimConfig rcfg;
            rcfg.fault = &plan;
            fault::RunOutcome o;
            if (scripted) {
              std::ostringstream discard;
              core::StimulusResult r = core::run_stimulus_cosim(
                  *project, script, discard, rcfg,
                  [&](const cosim::CoSimulation& cs) {
                    o = cosim::outcome_of(cs, plan);
                  });
              o.survived = o.survived && r.ok;
            } else {
              // Stimulus-free campaign: a fixed-length bring-up run, long
              // enough for retransmissions to resolve either way.
              auto cs = project->make_cosim(rcfg);
              cs->run_cycles(kCampaignCycles);
              o = cosim::outcome_of(*cs, plan);
            }
            return o;
          });
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "xtsocc: campaign failed: %s\n", e.what());
        return 1;
      }
      std::string doc = result.to_snapshot().to_json(2);
      doc += '\n';
      if (!opt.campaign_out_path.empty()) {
        std::ofstream os(opt.campaign_out_path, std::ios::binary);
        if (!os) {
          std::fprintf(stderr, "xtsocc: cannot write campaign '%s'\n",
                       opt.campaign_out_path.c_str());
          return 1;
        }
        os << doc;
        std::printf("campaign: %d runs, %zu survived; wrote %s\n",
                    opt.campaign, result.survivors(),
                    opt.campaign_out_path.c_str());
      } else {
        std::printf("%s", doc.c_str());
      }
      return 0;
    }

    int status = 0;
    if (!opt.simulate_path.empty()) {
      std::string script;
      if (!read_file(opt.simulate_path, &script)) {
        std::fprintf(stderr, "xtsocc: cannot read script '%s'\n",
                     opt.simulate_path.c_str());
        return 1;
      }
      std::ostringstream out;
      core::StimulusResult r;
      if (opt.on_cosim) {
        r = core::run_stimulus_cosim(
            *project, script, out, cfg,
            [&](const cosim::CoSimulation& cs) {
              emit_obs_reports(cs, opt);
              if (!opt.checkpoint_out_path.empty()) {
                snap::write_file(opt.checkpoint_out_path,
                                 snap::save(cs, cfg.fault, reg.get()));
                std::printf("wrote checkpoint %s (cycle %llu)\n",
                            opt.checkpoint_out_path.c_str(),
                            static_cast<unsigned long long>(cs.cycles()));
              }
            });
      } else {
        r = core::run_stimulus(*project, script, out);
      }
      std::printf("%s%s\n", out.str().c_str(), r.to_string().c_str());
      status = r.ok ? 0 : 1;
    } else {
      // --on-cosim without --simulate: a stimulus-free bring-up run of
      // --run-cycles cycles (default 64) so the observability surfaces
      // (--obs-trace, --obs=snapshot) have a real run to
      // describe. --restore loads a snapshot into the fresh elaboration
      // first and the run continues from its saved cycle.
      auto cs = project->make_cosim(cfg);
      if (!opt.restore_path.empty()) {
        try {
          const std::vector<std::uint8_t> bytes =
              snap::read_file(opt.restore_path);
          const snap::SnapshotInfo info = snap::restore(
              *cs, bytes.data(), bytes.size(), fault_plan.get(), reg.get());
          std::printf("restored %s (cycle %llu)\n", opt.restore_path.c_str(),
                      static_cast<unsigned long long>(info.cycle));
        } catch (const snap::SnapError& e) {
          std::fprintf(stderr, "xtsocc: --restore %s: %s\n",
                       opt.restore_path.c_str(), e.what());
          return 1;
        }
      }
      cs->run_cycles(opt.run_cycles);
      std::printf("cosim bring-up: %llu cycles, threads=%d, window=%d, "
                  "interconnect=%s\n",
                  static_cast<unsigned long long>(cs->cycles()), opt.threads,
                  cs->window(), cs->has_fabric() ? "noc" : "bus");
      emit_obs_reports(*cs, opt);
      if (!opt.checkpoint_out_path.empty()) {
        try {
          snap::write_file(opt.checkpoint_out_path,
                           snap::save(*cs, cfg.fault, reg.get()));
          std::printf("wrote checkpoint %s (cycle %llu)\n",
                      opt.checkpoint_out_path.c_str(),
                      static_cast<unsigned long long>(cs->cycles()));
        } catch (const snap::SnapError& e) {
          std::fprintf(stderr, "xtsocc: --checkpoint-out %s: %s\n",
                       opt.checkpoint_out_path.c_str(), e.what());
          return 1;
        }
      }
    }

    if (!opt.obs_trace_path.empty()) {
      std::ofstream os(opt.obs_trace_path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "xtsocc: cannot write trace '%s'\n",
                     opt.obs_trace_path.c_str());
        return 1;
      }
      reg->write_chrome_trace(os);
      os << '\n';
      std::printf("wrote %s (%llu trace events)\n", opt.obs_trace_path.c_str(),
                  static_cast<unsigned long long>(reg->event_count()));
    }
    return status;
  }

  codegen::Output out;
  DiagnosticSink gen_sink;
  if (opt.c_only) {
    out = project->generate_c(gen_sink);
  } else if (opt.vhdl_only) {
    out = project->generate_vhdl(gen_sink);
  } else {
    out = project->generate_all(gen_sink);
  }
  if (gen_sink.has_errors()) {
    std::fprintf(stderr, "%s", gen_sink.to_string().c_str());
    return 1;
  }

  if (opt.out_dir.empty()) {
    // No output directory: list what would be written.
    for (const auto& f : out.files) {
      std::printf("  %-28s %6zu lines\n", f.path.c_str(),
                  count_lines(f.content));
    }
    std::printf("(pass -o DIR to write %zu files, %zu lines)\n",
                out.files.size(), out.total_lines());
    return 0;
  }

  for (const auto& f : out.files) {
    fs::path dest = fs::path(opt.out_dir) / f.path;
    std::error_code ec;
    fs::create_directories(dest.parent_path(), ec);
    std::ofstream os(dest);
    if (!os) {
      std::fprintf(stderr, "xtsocc: cannot write '%s'\n", dest.c_str());
      return 1;
    }
    os << f.content;
  }
  std::printf("wrote %zu files (%zu lines) under %s\n", out.files.size(),
              out.total_lines(), opt.out_dir.c_str());
  return 0;
}
