// Shared engine-parity harness: one two-class model whose probe action is
// a snippet of OAL, run on the AST walker (the reference) or through a
// jitted module, plus the snippet list every parity suite walks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "xtsoc/jit/jit.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/runtime/executor.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::testing {

/// Jit cache shared by a whole test binary (content-addressed, so reruns
/// hit it, which also exercises the cache-hit path).
inline std::string test_cache_dir() {
  static const std::string dir = [] {
    std::error_code ec;
    std::filesystem::path p = std::filesystem::temp_directory_path(ec);
    if (ec) p = "/tmp";
    p /= "xtsoc-jit-gtest";
    std::filesystem::create_directories(p, ec);
    return p.string();
  }();
  return dir;
}

/// Peer and Probe; Probe's S1 action is the snippet, entered by
/// `go(n)`. On the jit every action is compiled.
struct EngineRun {
  std::unique_ptr<xtuml::Domain> domain;
  std::unique_ptr<oal::CompiledDomain> compiled;
  jit::JitResult jitted;
  std::unique_ptr<runtime::Executor> exec;
  runtime::InstanceHandle probe;

  EngineRun(const std::string& snippet, runtime::ActionEngine engine,
            std::int64_t n = 0, std::uint64_t max_ops = 10'000'000) {
    using xtuml::DataType;
    using xtuml::Multiplicity;
    xtuml::DomainBuilder b("H");
    b.cls("Peer", "PEER")
        .attr("tag", DataType::kInt)
        .event("poke")
        .state("P0")
        .state("P1", "self.tag = self.tag + 100;")
        .transition("P0", "poke", "P1");
    b.cls("Probe", "PRB")
        .attr("i", DataType::kInt)
        .attr("j", DataType::kInt)
        .attr("r", DataType::kReal)
        .attr("s", DataType::kString)
        .attr("flag", DataType::kBool)
        .ref_attr("ref", "Peer")
        .event("go", {{"n", DataType::kInt}})
        .event("pair", {{"a", DataType::kInt}, {"b", DataType::kInt}})
        .event("half", {{"x", DataType::kReal}})
        .state("S0")
        .state("S1", snippet)
        .state("S2", "self.j = param.a * 10 + param.b;")
        .state("S3", "self.r = param.x / 2;")
        .transition("S0", "go", "S1")
        .transition("S1", "pair", "S2")
        .transition("S1", "half", "S3");
    b.assoc("R1", "Probe", "uses", Multiplicity::kZeroMany, "Peer", "used_by",
            Multiplicity::kZeroMany);
    domain = b.take();
    DiagnosticSink sink;
    compiled = oal::compile_domain(*domain, sink);
    if (!compiled) throw std::runtime_error(sink.to_string());
    runtime::ExecutorConfig cfg;
    cfg.engine = engine;
    cfg.max_ops_per_action = max_ops;
    if (engine == runtime::ActionEngine::kJit) {
      jit::JitOptions opts;
      opts.cache_dir = test_cache_dir();
      jitted = jit::compile(*compiled, opts);
      if (jitted.module == nullptr) {
        throw std::runtime_error("jit unavailable: " + jitted.reason);
      }
      cfg.compiled = jitted.module.get();
    }
    exec = std::make_unique<runtime::Executor>(*compiled, cfg);
    probe = exec->create("Probe");
    exec->inject(probe, "go", {runtime::Value(n)});
    exec->run_all();
  }

  std::string trace() const { return exec->trace().to_string(); }
};

/// What one engine did with a snippet: its error text, or its trace and
/// op count.
struct Outcome {
  std::string error = "(no throw)";
  std::string trace;
  std::uint64_t ops = 0;
};

inline Outcome run_on(const char* snippet, runtime::ActionEngine engine,
                      std::int64_t n = 6,
                      std::uint64_t max_ops = 10'000'000) {
  Outcome o;
  try {
    EngineRun run(snippet, engine, n, max_ops);
    o.trace = run.trace();
    o.ops = run.exec->ops_executed();
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

/// One snippet per construct of the language; each must run without error
/// for any `go(n)`.
inline const std::vector<const char*>& parity_snippets() {
  static const std::vector<const char*> snippets = {
      "self.i = 2 + 3 * 4 - 1;",
      "self.r = 1.5 * param.n;",
      "self.r = 7;",  // widening on real attr
      "x = 2.0;\nx = 3;\nself.r = x;",  // widening on real local
      "self.s = \"a\" + \"b\" + \"c\";",
      "self.flag = 1 < 2 and not (3 == 4) or false;",
      "self.flag = false and (1 / 0 == 1);",  // short circuit
      "self.flag = true or (1 / 0 == 1);",
      "self.i = param.n % 4;",
      "if (param.n > 3)\n  self.i = 1;\nelif (param.n > 1)\n"
      "  self.i = 2;\nelse\n  self.i = 3;\nend if;",
      "k = 0;\nwhile (k < 10)\n  k = k + 1;\n  if (k == 4)\n"
      "    continue;\n  end if;\n  if (k > 7)\n    break;\n  end if;\n"
      "  self.i = self.i + k;\nend while;",
      "self.i = 1;\nreturn;\nself.i = 2;",
      "create object instance p of Peer;\np.tag = 9;\n"
      "relate self to p across R1;\n"
      "select one q related by self->Peer[R1];\nself.i = q.tag;",
      "create object instance a of Peer;\ncreate object instance b of "
      "Peer;\na.tag = 2;\nb.tag = 5;\n"
      "select many big from instances of Peer where (selected.tag > 3);\n"
      "self.i = cardinality big;",
      "create object instance a of Peer;\n"
      "select any p from instances of Peer;\n"
      "self.flag = not_empty p;\ndelete object instance p;\n"
      "select any q from instances of Peer;\nself.flag = empty q;",
      "k = 0;\nwhile (k < 4)\n  create object instance p of Peer;\n"
      "  p.tag = k;\n  k = k + 1;\nend while;\n"
      "select many all from instances of Peer;\n"
      "t = 0;\nfor each p in all\n  if (p.tag == 2)\n    continue;\n"
      "  end if;\n  t = t + p.tag;\nend for;\nself.i = t;",
      "create object instance p of Peer;\nself.ref = p;\n"
      "generate poke() to self.ref;\nlog \"sent\", 1;",
      "log \"vals\", 1, 2.5, true, \"txt\";",
      "generate go(n: param.n - 1) to self delay 3;",
      // mem.* ops hit the executor's flat fallback here (no hierarchy
      // attached): last write wins, unwritten addresses read 0.
      "mem.write(3, 40);\nmem.write(3, 2);\n"
      "self.i = mem.read(3) + mem.read(99);",
      "k = 0;\nwhile (k < 4)\n  mem.write(k * 8, k * param.n);\n"
      "  k = k + 1;\nend while;\nt = 0;\nk = 0;\nwhile (k < 4)\n"
      "  t = t + mem.read(k * 8);\n  k = k + 1;\nend while;\nself.i = t;",
      "self.r = param.n / 4;",
      "self.flag = \"abc\" < \"abd\";",
      "self.flag = 2 == 2.0;",
      "create object instance p of Peer;\np.tag = 9;\n"
      "relate self to p across R1;\nunrelate self from p across R1;\n"
      "select one q related by self->Peer[R1];\nself.flag = empty q;",
      // int/int compares are exact int64: 2^53 + 1 and 2^53 are the same
      // double but different ints.
      "a = 9007199254740993;\nb = 9007199254740992;\n"
      "self.flag = a > b;\nif (a == b)\n  self.i = 1;\nend if;\n"
      "if (a != b)\n  self.j = 1;\nend if;",
      // A where-filter on select any/one still evaluates every
      // candidate, so its ops are counted for every candidate.
      "k = 0;\nwhile (k < 5)\n  create object instance p of Peer;\n"
      "  p.tag = k;\n  k = k + 1;\nend while;\n"
      "select any q from instances of Peer where (selected.tag > k - 4);\n"
      "self.i = q.tag;",
      "create object instance p of Peer;\np.tag = 4;\n"
      "relate self to p across R1;\nlim = 3;\n"
      "select one q related by self->Peer[R1] where (selected.tag > lim);\n"
      "self.flag = not_empty q;",
      // Arguments in a different order from the event's parameters are
      // evaluated in source order.
      "generate pair(b: param.n + 1, a: param.n - 1) to self;",
      "k = 0;\nwhile (true)\n  k = k + 1;\n  j = 0;\n  while (j < k)\n"
      "    j = j + 1;\n    if (j == 3)\n      break;\n    end if;\n"
      "  end while;\n  if (k > 4)\n    return;\n  end if;\n"
      "  self.i = self.i + j;\nend while;",
      "self.i = -param.n;\nself.r = -2.5;\nself.flag = not (self.i < 0);",
      // Ints wrap: INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0 (no
      // SIGFPE); + - * and negation wrap through uint64.
      "m = 0 - 9223372036854775807 - 1;\nd = param.n - param.n - 1;\n"
      "self.i = m / d + (m - 1) * 3 - -m;\nself.j = m % d + (m - 1) * (m - 1);",
      // An int argument to a real parameter arrives as real, so the
      // receiver's param.x / 2 divides as real.
      "generate half(x: param.n - 1) to self;",
  };
  return snippets;
}

}  // namespace xtsoc::testing
