// Engine equivalence: the tree-walking interpreter (the reference) and the
// AOT jit must be observably indistinguishable — identical traces
// (events, values, order), identical op counts, identical error text —
// for every construct of the language. This is the paper's "any manner it
// chooses so long as the defined behavior is preserved" checked against
// one reference semantics.

#include <gtest/gtest.h>

#include "engine_parity.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/runtime/executor.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::runtime {
namespace {

using testing::EngineRun;
using testing::Outcome;
using testing::run_on;
using testing::test_cache_dir;
using xtuml::DataType;
using xtuml::DomainBuilder;

class EngineParity : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineParity, TracesIdentical) {
  const char* snippet = GetParam();
  EngineRun ast(snippet, ActionEngine::kAstWalk, 6);
  EngineRun jit(snippet, ActionEngine::kJit, 6);
  EXPECT_EQ(ast.trace(), jit.trace()) << "snippet:\n" << snippet;
  EXPECT_EQ(ast.exec->ops_executed(), jit.exec->ops_executed())
      << "snippet:\n" << snippet;
}

INSTANTIATE_TEST_SUITE_P(Snippets, EngineParity,
                         ::testing::ValuesIn(testing::parity_snippets()));

TEST(EngineParity, ErrorsIdentical) {
  for (const char* snippet :
       {"self.i = 1 / (param.n - 6);",  // div by zero at n=6
        "self.i = 1 % (param.n - 6);",
        "self.i = self.ref.tag;",              // null deref
        "generate poke() to self.ref;",        // generate to null
        "generate poke() to self.ref delay 0 - 1;",
        "generate go(n: 1) to self delay param.n - 7;",
        "if (param.n > 100)\n  x = 1;\nend if;\nself.i = x;",  // unset local
        "create object instance p of Peer;\n"
        "relate self to p across R1;\nrelate self to p across R1;"}) {
    const Outcome ast = run_on(snippet, ActionEngine::kAstWalk);
    const Outcome jit = run_on(snippet, ActionEngine::kJit);
    EXPECT_EQ(ast.error, jit.error) << snippet;
    EXPECT_NE(ast.error, "(no throw)") << snippet;
  }
}

TEST(EngineParity, OpLimitEnforcedInBoth) {
  const char* spin = "while (true)\n  self.i = self.i + 1;\nend while;";
  const Outcome ast = run_on(spin, ActionEngine::kAstWalk, 6, 5000);
  const Outcome jit = run_on(spin, ActionEngine::kJit, 6, 5000);
  EXPECT_EQ(ast.error, "action exceeded op limit (runaway loop?)");
  EXPECT_EQ(ast.error, jit.error);
}

TEST(EngineParity, OpLimitCountsWalkerOps) {
  // 2 + 1 + 3 walker ops: the assignment with its literal, the while
  // statement, and one (false) test of `k > 0`, three nodes. The action
  // completes under a limit of 6 and trips at 5 on both engines.
  const char* once = "k = 0;\nwhile (k > 0)\n  k = k + 1;\nend while;";
  for (ActionEngine engine : {ActionEngine::kAstWalk, ActionEngine::kJit}) {
    const Outcome fits = run_on(once, engine, 6, 6);
    EXPECT_EQ(fits.error, "(no throw)");
    EXPECT_EQ(fits.ops, 6u);
    EXPECT_EQ(run_on(once, engine, 6, 5).error,
              "action exceeded op limit (runaway loop?)");
  }
}

TEST(EngineParity, SelfDeleteHandledInBoth) {
  for (ActionEngine engine : {ActionEngine::kAstWalk, ActionEngine::kJit}) {
    DomainBuilder b("D");
    b.cls("E")
        .event("die")
        .state("Alive")
        .state("Dying", "delete object instance self;")
        .transition("Alive", "die", "Dying");
    DiagnosticSink sink;
    auto cd = oal::compile_domain(b.domain(), sink);
    ASSERT_NE(cd, nullptr);
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
  }
}

}  // namespace
}  // namespace xtsoc::runtime
