// xtsoc::jit — jitted actions must be observably indistinguishable from
// the AST walker: per construct at inputs engines_test does not use, and
// for a whole co-simulation across the threads x window x faults grid.
// And every failure
// of the jit pipeline (no compiler, unwritable cache, stale cached object)
// must degrade to the walker with a reported reason, never crash.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "engine_parity.hpp"
#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/common/rng.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/jit/emit.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/runtime/executor.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::runtime {
namespace {

namespace fs = std::filesystem;

using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;

using testing::EngineRun;
using testing::Outcome;
using testing::run_on;
using testing::test_cache_dir;

// --- per-construct parity at other inputs -------------------------------------
//
// engines_test runs every parity snippet at go(6). JitParity runs the
// same snippets at inputs that take the other paths: the elif and else
// arms, zero-trip loops, negative operands of / and %, and an input of 0.

constexpr std::int64_t kOtherInputs[] = {0, 2, -3};

class JitParity : public ::testing::TestWithParam<const char*> {};

TEST_P(JitParity, TracesIdentical) {
  const char* snippet = GetParam();
  for (std::int64_t n : kOtherInputs) {
    EngineRun ast(snippet, ActionEngine::kAstWalk, n);
    EngineRun jit(snippet, ActionEngine::kJit, n);
    EXPECT_EQ(ast.trace(), jit.trace()) << "n=" << n << " snippet:\n"
                                        << snippet;
    EXPECT_EQ(ast.exec->ops_executed(), jit.exec->ops_executed())
        << "n=" << n << " snippet:\n" << snippet;
  }
}

INSTANTIATE_TEST_SUITE_P(Snippets, JitParity,
                         ::testing::ValuesIn(testing::parity_snippets()));

TEST(JitParity, ErrorTextIdentical) {
  // Each snippet fails at go(0) only.
  for (const char* snippet :
       {"self.i = 10 / param.n;", "self.i = 10 % param.n;",
        "generate go(n: 1) to self delay param.n - 1;",
        "if (param.n != 0)\n  x = 1;\nend if;\nself.i = x;",
        "k = 0;\nwhile (k < 3)\n  k = k + 1;\nend while;\n"
        "self.i = k / param.n;"}) {
    const Outcome ast = run_on(snippet, ActionEngine::kAstWalk, 0);
    const Outcome jit = run_on(snippet, ActionEngine::kJit, 0);
    EXPECT_EQ(ast.error, jit.error) << snippet;
    EXPECT_NE(ast.error, "(no throw)") << snippet;
    EXPECT_EQ(run_on(snippet, ActionEngine::kJit, 1).error, "(no throw)")
        << snippet;
  }
}

TEST(JitParity, OpLimitEnforced) {
  // Runaway loops whose only way back to the head is a jump the jit emits
  // for break/continue or for an inner loop still charge ops and trip the
  // limit, with the walker's text.
  for (const char* spin :
       {"k = 0;\nwhile (true)\n  k = k + 1;\n  if (k > 0)\n    continue;\n"
        "  end if;\nend while;",
        "while (true)\n  j = 0;\n  while (j < 3)\n    j = j + 1;\n"
        "    if (j == 2)\n      break;\n    end if;\n  end while;\n"
        "end while;",
        "while (param.n > 0)\n  select many all from instances of Peer;\n"
        "  for each p in all\n    self.i = self.i + 1;\n  end for;\n"
        "end while;"}) {
    const Outcome ast = run_on(spin, ActionEngine::kAstWalk, 6, 5000);
    const Outcome jit = run_on(spin, ActionEngine::kJit, 6, 5000);
    EXPECT_EQ(ast.error, "action exceeded op limit (runaway loop?)") << spin;
    EXPECT_EQ(ast.error, jit.error) << spin;
  }
}

TEST(JitParity, HandCountedOps) {
  // One op per statement and per expression node entered, on both
  // engines. `self.i = self.i + 41;` is the statement, `+`, `self.i`,
  // `self`, `41` on the right and `self` on the left: 6.
  for (ActionEngine engine : {ActionEngine::kAstWalk, ActionEngine::kJit}) {
    EXPECT_EQ(run_on("self.i = self.i + 41;", engine).ops, 6u);
    // `k = 0;` is 2 and the while statement 1. Each test of `k < n` is 3
    // (run n + 1 times) and each pass of `k = k + 1;` is 4, so one more
    // iteration costs 7.
    const char* three = "k = 0;\nwhile (k < 3)\n  k = k + 1;\nend while;";
    const char* four = "k = 0;\nwhile (k < 4)\n  k = k + 1;\nend while;";
    EXPECT_EQ(run_on(three, engine).ops, 3u + 4u * 3u + 3u * 4u);
    EXPECT_EQ(run_on(four, engine).ops - run_on(three, engine).ops, 7u);
    // A short-circuited operand is not charged: `false and ...` is the
    // statement, `and`, `false` and `self` on the left.
    EXPECT_EQ(run_on("self.flag = false and (1 / 0 == 1);", engine).ops, 4u);
  }
}

/// Seeded random Probe actions that mix the paths the jit lowers: int,
/// real, bool and string expressions (wrapping and dividing ints, real
/// compares, short circuits), if/elif/else, while with break and continue,
/// where-filters, for each, mem.*, log and generate. Pieces are joined with
/// cat({...}), whose braced list draws from the generator left to right.
class SnippetGen {
public:
  explicit SnippetGen(std::uint64_t seed) : rng_(seed) {}

  std::string action() {
    std::string s = cat(
        {"i0 = param.n;\ni1 = 5;\nr0 = 0.5;\nb0 = true;\ns0 = \"x\";\nk = 0;\n"
         "create object instance p of Peer;\np.tag = param.n;\n"
         "create object instance p of Peer;\np.tag = param.n + 2;\n"
         "select many ps from instances of Peer;\n"
         "select any q from instances of Peer;\n",
         stmts(3 + pick(6), false)});
    if (pick(3) == 0) {
      s += cat({"generate pair(b: ", int_expr(), ", a: ", int_expr(),
                ") to self;\n"});
    }
    return s + "log self.i, self.r, self.flag, self.s, i0, r0, b0, s0;\n";
  }

private:
  /// Bounds the nesting of expressions and compound statements.
  struct Nest {
    explicit Nest(int& depth) : depth_(depth) { ++depth_; }
    ~Nest() { --depth_; }
    int& depth_;
  };

  static std::string cat(std::initializer_list<std::string> parts) {
    std::string out;
    for (const std::string& p : parts) out += p;
    return out;
  }
  int pick(int n) {
    return static_cast<int>(rng_.below(static_cast<std::uint64_t>(n)));
  }
  std::string one_of(std::initializer_list<const char*> xs) {
    return xs.begin()[pick(static_cast<int>(xs.size()))];
  }

  std::string int_leaf() {
    return one_of({"i0", "i1", "param.n", "self.i", "self.j", "k", "0", "3",
                   "9223372036854775807"});
  }
  std::string int_expr() {
    if (depth_ >= 3) return int_leaf();
    Nest nest(depth_);
    switch (pick(7)) {
      case 0:
        return cat({"(", int_expr(), one_of({" + ", " - ", " * "}),
                    int_expr(), ")"});
      case 1:
        // Mostly a divisor that is never zero, so most runs complete.
        return cat({"(", int_expr(), one_of({" / ", " % "}),
                    pick(5) != 0 ? cat({"(", int_expr(), " % 5 + 7)"})
                                 : int_expr(),
                    ")"});
      case 2: return "-" + int_leaf();
      case 3: return cat({"mem.read(", int_expr(), ")"});
      case 4: return "cardinality ps";
      default: return int_leaf();
    }
  }
  std::string real_expr() {
    const std::string leaf = one_of({"r0", "self.r", "1.5", "0.0"});
    if (depth_ >= 3) return leaf;
    Nest nest(depth_);
    switch (pick(4)) {
      case 0:
        return cat({"(", real_expr(), one_of({" + ", " - ", " * ", " / "}),
                    pick(2) != 0 ? real_expr() : int_expr(), ")"});
      case 1: return "-" + leaf;
      case 2: return cat({"(", int_expr(), " + ", leaf, ")"});
      default: return leaf;
    }
  }
  std::string str_expr() {
    if (depth_ < 3 && pick(3) == 0) {
      Nest nest(depth_);
      return cat({"(", str_expr(), " + ", str_expr(), ")"});
    }
    return one_of({"s0", "self.s", "\"ab\"", "\"\"", "\"a\\\"q\""});
  }
  std::string bool_leaf() {
    return one_of({"b0", "self.flag", "true", "false"});
  }
  std::string bool_expr() {
    if (depth_ >= 3) return bool_leaf();
    Nest nest(depth_);
    const std::string rel =
        one_of({" == ", " != ", " < ", " <= ", " > ", " >= "});
    switch (pick(9)) {
      case 0: return cat({"(", int_expr(), rel, int_expr(), ")"});
      case 1:
        return cat({"(", real_expr(), rel,
                    pick(2) != 0 ? int_expr() : real_expr(), ")"});
      case 2:
        return cat({"(", bool_expr(), one_of({" and ", " or "}), bool_expr(),
                    ")"});
      case 3: return "not " + bool_leaf();
      case 4: return cat({"(", str_expr(), rel, str_expr(), ")"});
      case 5:
        return one_of({"empty q", "not_empty q", "empty ps", "not_empty ps"});
      case 6:
        return cat({"(", bool_leaf(), one_of({" == ", " != "}), bool_leaf(),
                    ")"});
      case 7: return one_of({"(q == self.ref)", "(q != q)"});
      default: return bool_leaf();
    }
  }

  std::string stmts(int n, bool in_loop) {
    std::string out;
    for (int i = 0; i < n; ++i) out += stmt(in_loop);
    return out;
  }
  std::string stmt(bool in_loop) {
    const int kind = pick(in_loop ? 15 : 13);
    if (kind >= 10 && kind <= 12 && depth_ >= 2) return "log i0, r0, s0;\n";
    Nest nest(depth_);
    switch (kind) {
      case 0: return cat({one_of({"i0", "i1"}), " = ", int_expr(), ";\n"});
      case 1:
        return cat({"r0 = ", pick(2) != 0 ? real_expr() : int_expr(), ";\n"});
      case 2: return cat({"b0 = ", bool_expr(), ";\n"});
      case 3: return cat({"s0 = ", str_expr(), ";\n"});
      case 4:
        return cat({"self.i = ", int_expr(), ";\nself.s = ", str_expr(),
                    ";\n"});
      case 5:
        return cat({"self.r = ", real_expr(), ";\nself.flag = ", bool_expr(),
                    ";\n"});
      case 6: return cat({"mem.write(", int_expr(), ", ", int_expr(), ");\n"});
      case 7:
        return cat({"create object instance p of Peer;\np.tag = ",
                    int_expr(), ";\n"});
      case 8:
        return cat({"select many ps from instances of Peer where (",
                    pick(2) != 0 ? "selected.tag > " + int_expr()
                                 : bool_expr(),
                    ");\n"});
      case 9:
        return cat({"select any q from instances of Peer where "
                    "(selected.tag % 2 == ",
                    std::to_string(pick(2)),
                    ");\nif (not_empty q)\n  self.j = q.tag;\nend if;\n"});
      case 10: {
        std::string r = cat({"if (", bool_expr(), ")\n",
                             stmts(1 + pick(2), in_loop)});
        if (pick(2) != 0) {
          r += cat({"elif (", bool_expr(), ")\n", stmts(1, in_loop)});
        }
        if (pick(2) != 0) r += "else\n" + stmts(1, in_loop);
        return r + "end if;\n";
      }
      case 11:
        return cat({"k = 0;\nwhile (k < ", std::to_string(pick(4)),
                    ")\n  k = k + 1;\n", stmts(1 + pick(2), true),
                    "end while;\n"});
      case 12:
        return cat({"for each e in ps\n  self.i = self.i + e.tag;\n",
                    stmts(pick(2), true), "end for;\n"});
      case 13: return cat({"if (", bool_expr(), ")\n  break;\nend if;\n"});
      default: return cat({"if (", bool_expr(), ")\n  continue;\nend if;\n"});
    }
  }

  Rng rng_;
  int depth_ = 0;
};

TEST(JitParity, RandomSnippetsAgree) {
  // A runaway loop may trip the op limit one run early on the jit, so a
  // limit error is compared by its text only.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string snippet = SnippetGen(seed).action();
    for (std::int64_t n : {0, 3, -2}) {
      const Outcome ast =
          run_on(snippet.c_str(), ActionEngine::kAstWalk, n, 20000);
      const Outcome jit = run_on(snippet.c_str(), ActionEngine::kJit, n, 20000);
      const std::string what = "seed " + std::to_string(seed) + " n=" +
                               std::to_string(n) + " snippet:\n" + snippet;
      ASSERT_EQ(ast.error, jit.error) << what;
      if (ast.error.find("op limit") != std::string::npos) continue;
      EXPECT_EQ(ast.trace, jit.trace) << what;
      EXPECT_EQ(ast.ops, jit.ops) << what;
    }
  }
}

/// The jit source for a one-class domain whose S1 action is `snippet`.
std::string jit_source_of(const char* snippet) {
  DomainBuilder b("S");
  b.cls("A")
      .attr("x", DataType::kInt)
      .event("go")
      .state("S0")
      .state("S1", snippet)
      .transition("S0", "go", "S1");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  EXPECT_NE(cd, nullptr) << sink.to_string();
  return cd == nullptr ? "" : jit::emit_module_source(*cd, "digest");
}

TEST(JitEmit, IntArithmeticIsPlainCxx) {
  // The int subtree is int64_t arithmetic with the walker's wrap, and the
  // six ops of the straight-line statement are charged at once.
  const std::string src = jit_source_of("self.x = self.x + 41;");
  EXPECT_NE(src.find("xj_iadd(t"), std::string::npos) << src;
  EXPECT_NE(src.find("41LL)"), std::string::npos) << src;
  EXPECT_NE(src.find("ops += 6u; if (ops > max_ops) goto Lxj_lim;"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("o->set_attr(h, self, 0u, xj_i("), std::string::npos)
      << src;
}

TEST(JitEmit, WhereFilterIsAnInlineLoop) {
  // The predicate runs per candidate with `selected` bound, and the outer
  // binding is restored after the loop.
  const std::string src = jit_source_of(
      "select many xs from instances of A where (selected.x > 0);\n"
      "self.x = cardinality xs;");
  const std::size_t loop = src.find("xsel = o->set_at(h, ");
  ASSERT_NE(loop, std::string::npos) << src;
  EXPECT_NE(src.find("o->get_attr(h, xsel, 0u)", loop), std::string::npos)
      << src;
  EXPECT_NE(src.find("o->set_append(h, ", loop), std::string::npos) << src;
  EXPECT_NE(src.find("xsel = t", loop), std::string::npos) << src;
}

TEST(JitParity, SelfDeleteHandled) {
  // An instance that deletes itself with signals to itself still pending
  // (one immediate, one delayed) finishes its action; both signals are
  // discarded on delivery, identically on both engines.
  const char* dying =
      "generate kick() to self;\ngenerate kick() to self delay 4;\n"
      "delete object instance self;\nlog \"gone\", 1;";
  std::string traces[2];
  int k = 0;
  for (ActionEngine engine : {ActionEngine::kAstWalk, ActionEngine::kJit}) {
    DomainBuilder b("D");
    b.cls("E")
        .event("die")
        .event("kick")
        .state("Alive")
        .state("Dying", dying)
        .transition("Alive", "die", "Dying")
        .transition("Dying", "kick", "Alive");
    DiagnosticSink sink;
    auto cd = oal::compile_domain(b.domain(), sink);
    ASSERT_NE(cd, nullptr) << sink.to_string();
    jit::JitResult jr;
    ExecutorConfig cfg;
    cfg.engine = engine;
    if (engine == ActionEngine::kJit) {
      jit::JitOptions opts;
      opts.cache_dir = test_cache_dir();
      jr = jit::compile(*cd, opts);
      ASSERT_NE(jr.module, nullptr) << jr.reason;
      cfg.compiled = jr.module.get();
    }
    Executor exec(*cd, cfg);
    auto h = exec.create("E");
    exec.inject(h, "die");
    EXPECT_NO_THROW(exec.run_all());
    EXPECT_FALSE(exec.database().is_alive(h));
    traces[k++] = exec.trace().to_string();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_NE(traces[0].find("gone"), std::string::npos) << traces[0];
  std::size_t ignored = 0;
  for (std::size_t at = traces[0].find("ignored"); at != std::string::npos;
       at = traces[0].find("ignored", at + 1)) {
    ++ignored;
  }
  EXPECT_EQ(ignored, 2u) << traces[0];
}

/// A minimal one-class domain for the failure-path tests.
std::unique_ptr<oal::CompiledDomain> tiny_domain(
    std::unique_ptr<Domain>* keep) {
  DomainBuilder b("T");
  b.cls("A")
      .attr("x", DataType::kInt)
      .event("go")
      .state("S0")
      .state("S1", "self.x = self.x + 1;")
      .transition("S0", "go", "S1");
  *keep = b.take();
  DiagnosticSink sink;
  auto cd = oal::compile_domain(**keep, sink);
  EXPECT_NE(cd, nullptr) << sink.to_string();
  return cd;
}

TEST(JitFallback, SecondCompileIsCacheHit) {
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  jit::JitOptions opts;
  opts.cache_dir = test_cache_dir() + "/hit";
  jit::JitResult cold = jit::compile(*cd, opts);
  ASSERT_NE(cold.module, nullptr) << cold.reason;
  jit::JitResult warm = jit::compile(*cd, opts);
  ASSERT_NE(warm.module, nullptr) << warm.reason;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.digest, warm.digest);
  EXPECT_EQ(cold.so_path, warm.so_path);
}

TEST(JitFallback, UnwritableCacheDirReportsReason) {
  // A regular file where the cache dir should be defeats the jit even for
  // root (chmod-based unwritability is a no-op under CAP_DAC_OVERRIDE).
  const std::string blocker = test_cache_dir() + "/blocker-file";
  { std::ofstream out(blocker); out << "not a directory"; }
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  jit::JitOptions opts;
  opts.cache_dir = blocker;
  jit::JitResult res = jit::compile(*cd, opts);
  EXPECT_EQ(res.module, nullptr);
  EXPECT_FALSE(res.reason.empty());
}

TEST(JitFallback, MissingCompilerReportsReason) {
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  jit::JitOptions opts;
  opts.cache_dir = test_cache_dir() + "/nocc";
  opts.compiler = "/nonexistent/xtsoc-no-such-compiler";
  jit::JitResult res = jit::compile(*cd, opts);
  EXPECT_EQ(res.module, nullptr);
  EXPECT_NE(res.reason.find("compile failed"), std::string::npos)
      << res.reason;
}

TEST(JitFallback, StaleCachedObjectRejectedNotRecompiled) {
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  jit::JitOptions opts;
  opts.cache_dir = test_cache_dir() + "/stale";
  // This test corrupts its cache; start clean so re-runs see a fresh build.
  std::error_code ec;
  fs::remove_all(opts.cache_dir, ec);
  jit::JitResult good = jit::compile(*cd, opts);
  ASSERT_NE(good.module, nullptr) << good.reason;
  good.module.reset();  // release the dlopen handle before corrupting

  // Replace the cached object with one whose embedded digest differs:
  // compile a different domain and copy its .so over ours.
  DomainBuilder b2("U");
  b2.cls("B")
      .attr("y", DataType::kInt)
      .event("go")
      .state("S0")
      .state("S1", "self.y = self.y + 2;")
      .transition("S0", "go", "S1");
  DiagnosticSink sink;
  auto cd2 = oal::compile_domain(b2.domain(), sink);
  ASSERT_NE(cd2, nullptr);
  jit::JitResult other = jit::compile(*cd2, opts);
  ASSERT_NE(other.module, nullptr) << other.reason;
  other.module.reset();
  ASSERT_NE(other.so_path, good.so_path);
  fs::copy_file(other.so_path, good.so_path,
                fs::copy_options::overwrite_existing);

  jit::JitResult stale = jit::compile(*cd, opts);
  EXPECT_EQ(stale.module, nullptr);
  EXPECT_NE(stale.reason.find("digest mismatch"), std::string::npos)
      << stale.reason;
}

TEST(JitFallback, TruncatedCachedObjectRejected) {
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  jit::JitOptions opts;
  opts.cache_dir = test_cache_dir() + "/trunc";
  std::error_code ec;
  fs::remove_all(opts.cache_dir, ec);
  jit::JitResult good = jit::compile(*cd, opts);
  ASSERT_NE(good.module, nullptr) << good.reason;
  good.module.reset();
  { std::ofstream out(good.so_path, std::ios::trunc); out << "garbage"; }
  jit::JitResult bad = jit::compile(*cd, opts);
  EXPECT_EQ(bad.module, nullptr);
  EXPECT_NE(bad.reason.find("cached object rejected"), std::string::npos)
      << bad.reason;
}

TEST(JitFallback, ExecutorFallsBackPerActionWhenModuleMissing) {
  // kJit with no compiled module behaves exactly like the walker.
  std::unique_ptr<Domain> dom;
  auto cd = tiny_domain(&dom);
  ExecutorConfig cfg;
  cfg.engine = ActionEngine::kJit;
  cfg.compiled = nullptr;
  Executor exec(*cd, cfg);
  auto h = exec.create("A");
  exec.inject(h, "go");
  EXPECT_NO_THROW(exec.run_all());
  EXPECT_EQ(as_int(exec.database().get_attr(h, AttributeId(0))), 1);
}

// --- cosim-level parity grid ---------------------------------------------------
//
// The engine contract: a jitted co-simulation is byte-identical to the
// AST walker in every observable (see observe.hpp) at every (threads,
// window, faults) combination. The workload is the same
// self-sustaining 2x2-mesh ring snap_test uses: three hardware nodes
// ping-ponging forever, so there is cross-tile traffic in flight at every
// cycle and the fault injector has something to chew on.

std::unique_ptr<Domain> make_ring_domain() {
  using xtuml::ScalarValue;
  DomainBuilder b("Ring");
  constexpr int kNodes = 3;
  for (int i = 0; i < kNodes; ++i) b.cls("Node" + std::to_string(i));
  for (int i = 0; i < kNodes; ++i) {
    std::string peer = "Node" + std::to_string((i + 1) % kNodes);
    b.edit("Node" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .attr("pings", DataType::kInt)
        .ref_attr("peer", peer)
        .event("tick")
        .event("ping", {{"v", DataType::kInt}})
        .state("Spin",
               "self.acc = (self.acc * 33 + 7) % 65537;\n"
               "if (self.acc % 8 == 0)\n"
               "  generate ping(v: self.acc) to self.peer;\n"
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

marks::MarkSet ring_marks() {
  using xtuml::ScalarValue;
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};  // sw owns (0,0)
  for (int i = 0; i < 3; ++i) {
    std::string cls = "Node" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     ScalarValue(std::int64_t{tiles[i][0]}));
    m.set_class_mark(cls, marks::kTileY,
                     ScalarValue(std::int64_t{tiles[i][1]}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  return m;
}

void boot_ring(cosim::CoSimulation& cs) {
  constexpr int kNodes = 3;
  std::vector<InstanceHandle> h;
  for (int i = 0; i < kNodes; ++i) {
    h.push_back(cs.create("Node" + std::to_string(i)));
  }
  for (int i = 0; i < kNodes; ++i) {
    // peer is the third declared attribute (acc, pings, peer).
    cs.executor_of(h[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(h[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(h[static_cast<std::size_t>((i + 1) % kNodes)]));
    cs.inject(h[static_cast<std::size_t>(i)], "tick");
  }
}

fault::FaultSpec noisy_spec() {
  fault::FaultSpec s;
  s.seed = 7;
  s.flit_drop = 0.05;
  s.flit_corrupt = 0.05;
  return s;
}

/// Every observable byte of one ring run (see observe.hpp).
testing::Observed run_ring(const testing::MappedFixture& fx,
                           ActionEngine engine,
                           const CompiledActions* compiled, int threads,
                           int window, bool faults) {
  cosim::CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  cfg.engine = engine;
  cfg.compiled = compiled;
  fault::Plan plan(noisy_spec());
  cfg.fault = faults ? &plan : nullptr;
  cosim::CoSimulation cs(*fx.system, cfg);
  boot_ring(cs);
  testing::Recorder rec(cs);
  cs.run_cycles(300);
  return rec.take();
}

class EnginesJit
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

// The test keeps the name it had when the reference engine was the
// bytecode VM; the reference is now the walker.
TEST_P(EnginesJit, ByteIdenticalToVm) {
  auto [threads, window, faults] = GetParam();
  testing::MappedFixture fx(make_ring_domain(), ring_marks());
  jit::JitOptions opts;
  opts.cache_dir = test_cache_dir();
  jit::JitResult jr = jit::compile(*fx.compiled, opts);
  ASSERT_NE(jr.module, nullptr) << jr.reason;

  testing::Observed ast = run_ring(fx, ActionEngine::kAstWalk, nullptr,
                                   threads, window, faults);
  testing::Observed jat = run_ring(fx, ActionEngine::kJit, jr.module.get(),
                                   threads, window, faults);
  testing::expect_identical(ast, jat,
                            "threads=" + std::to_string(threads) +
                                " window=" + std::to_string(window) +
                                " faults=" + std::to_string(faults));
}

// threads 1/2/8 x window 0 (auto = L) / 1 (one-cycle windows) / 4 (clamped to L) x
// faults off/on.
INSTANTIATE_TEST_SUITE_P(Grid, EnginesJit,
                         ::testing::Combine(::testing::Values(1, 2, 8),
                                            ::testing::Values(0, 1, 4),
                                            ::testing::Bool()));

TEST(EnginesJit, ReportSurfacesEngineSection) {
  // The "engines" section appears exactly when the caller records a
  // request, and carries the fallback reason when the jit was unavailable.
  testing::MappedFixture fx(make_ring_domain(), ring_marks());
  {
    cosim::CoSimConfig cfg;
    cosim::CoSimulation cs(*fx.system, cfg);
    EXPECT_EQ(cs.report().to_json(2).find("engines"), std::string::npos);
  }
  {
    cosim::CoSimConfig cfg;
    cfg.engine_status.requested = "jit";
    cfg.engine_status.active = "ast";
    cfg.engine_status.fallback_reason = "compile failed (cc, status 1)";
    cosim::CoSimulation cs(*fx.system, cfg);
    const std::string rep = cs.report().to_json(2);
    EXPECT_NE(rep.find("\"engines\""), std::string::npos);
    EXPECT_NE(rep.find("\"requested\": \"jit\""), std::string::npos);
    EXPECT_NE(rep.find("\"active\": \"ast\""), std::string::npos);
    EXPECT_NE(rep.find("compile failed"), std::string::npos);
  }
}

}  // namespace
}  // namespace xtsoc::runtime
