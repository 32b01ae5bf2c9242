// Focused semantics tests for the OAL interpreter: every operator, every
// statement kind, and the model-level error paths, exercised through a
// one-class harness that runs a snippet and inspects the resulting
// attributes.

#include <gtest/gtest.h>

#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/runtime/executor.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::runtime {
namespace {

using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;
using xtuml::Multiplicity;

/// Harness: class Probe with attributes of every type; the snippet under
/// test is the action of the state entered on "go". A second class "Peer"
/// (with association R1) is available for instance-level statements.
class InterpHarness {
public:
  explicit InterpHarness(const std::string& snippet) {
    DomainBuilder b("H");
    b.cls("Peer", "PEER")
        .attr("tag", DataType::kInt)
        .event("poke")
        .state("P0")
        .state("P1", "self.tag = self.tag + 100;")
        .transition("P0", "poke", "P1");
    b.cls("Probe", "PRB")
        .attr("i", DataType::kInt)
        .attr("r", DataType::kReal)
        .attr("s", DataType::kString)
        .attr("flag", DataType::kBool)
        .ref_attr("ref", "Peer")
        .event("go", {{"n", DataType::kInt}})
        .event("half", {{"x", DataType::kReal}})
        .state("S0")
        .state("S1", snippet)
        .state("S2", "self.r = param.x / 2;")
        .transition("S0", "go", "S1")
        .transition("S1", "half", "S2")
        .transition("S2", "half", "S2");
    b.assoc("R1", "Probe", "uses", Multiplicity::kZeroMany, "Peer", "used_by",
            Multiplicity::kZeroMany);
    domain_ = b.take();
    DiagnosticSink sink;
    compiled_ = oal::compile_domain(*domain_, sink);
    if (!compiled_) throw std::runtime_error(sink.to_string());
    exec_ = std::make_unique<Executor>(*compiled_);
    probe_ = exec_->create("Probe");
  }

  /// Run the snippet (event parameter n = `n`) to completion.
  void run(std::int64_t n = 0) {
    exec_->inject(probe_, "go", {Value(n)});
    exec_->run_all();
  }

  Value attr(const char* name) const {
    const auto* a = domain_->find_class("Probe")->find_attribute(name);
    return exec_->database().get_attr(probe_, a->id);
  }
  std::int64_t i() const { return std::get<std::int64_t>(attr("i")); }
  double r() const { return std::get<double>(attr("r")); }
  std::string s() const { return std::get<std::string>(attr("s")); }
  bool flag() const { return std::get<bool>(attr("flag")); }

  Executor& exec() { return *exec_; }
  InstanceHandle probe() const { return probe_; }
  const Domain& domain() const { return *domain_; }

private:
  std::unique_ptr<Domain> domain_;
  std::unique_ptr<oal::CompiledDomain> compiled_;
  std::unique_ptr<Executor> exec_;
  InstanceHandle probe_;
};

// --- arithmetic -----------------------------------------------------------------

struct ArithCase {
  const char* expr;
  std::int64_t want;
};

// Print by value: gtest's default dumps the raw bytes, pointer and padding
// included, so the listed test names would change from one build to the next.
void PrintTo(const ArithCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.expr) << " -> " << c.want;
}

class IntArith : public ::testing::TestWithParam<ArithCase> {};

TEST_P(IntArith, Evaluates) {
  InterpHarness h(std::string("self.i = ") + GetParam().expr + ";");
  h.run();
  EXPECT_EQ(h.i(), GetParam().want) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntArith,
    ::testing::Values(
        ArithCase{"2 + 3", 5}, ArithCase{"2 - 5", -3},
        ArithCase{"4 * 6", 24}, ArithCase{"17 / 5", 3},
        ArithCase{"-17 / 5", -3},                 // C-style truncation
        ArithCase{"17 % 5", 2}, ArithCase{"-17 % 5", -2},
        ArithCase{"2 + 3 * 4", 14}, ArithCase{"(2 + 3) * 4", 20},
        ArithCase{"10 - 2 - 3", 5},              // left associative
        ArithCase{"-(3 + 4)", -7},
        ArithCase{"-(-5)", 5}));  // note: "--" itself starts an OAL comment

TEST(Interp, RealArithmeticAndWidening) {
  InterpHarness h("self.r = 1 / 2 + 0.25;\n"   // int div first: 0 + 0.25
                  "self.r = self.r * 4;");      // widened int
  h.run();
  EXPECT_DOUBLE_EQ(h.r(), 1.0);
}

TEST(Interp, RealDivisionIsIeee) {
  InterpHarness h("self.r = 1.0 / 4;");
  h.run();
  EXPECT_DOUBLE_EQ(h.r(), 0.25);
}

TEST(Interp, DivisionByZeroThrows) {
  InterpHarness h("self.i = 1 / (self.i - 0);");
  EXPECT_THROW(h.run(), ModelError);
}

TEST(Interp, ModuloByZeroThrows) {
  InterpHarness h("self.i = 1 % self.i;");
  EXPECT_THROW(h.run(), ModelError);
}

// --- comparisons & logic ----------------------------------------------------------

struct BoolCase {
  const char* expr;
  bool want;
};

void PrintTo(const BoolCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.expr) << " -> " << (c.want ? "true" : "false");
}

class BoolEval : public ::testing::TestWithParam<BoolCase> {};

TEST_P(BoolEval, Evaluates) {
  InterpHarness h(std::string("self.flag = ") + GetParam().expr + ";");
  h.run();
  EXPECT_EQ(h.flag(), GetParam().want) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BoolEval,
    ::testing::Values(
        BoolCase{"1 < 2", true}, BoolCase{"2 <= 2", true},
        BoolCase{"3 > 3", false}, BoolCase{"3 >= 3", true},
        BoolCase{"1 == 1.0", true},               // numeric cross-type
        BoolCase{"1 != 1.5", true},
        BoolCase{"\"a\" < \"b\"", true},
        BoolCase{"\"ab\" == \"ab\"", true},
        BoolCase{"true and false", false},
        BoolCase{"true or false", true},
        BoolCase{"not true", false},
        BoolCase{"not (1 > 2) and 3 == 3", true}));

TEST(Interp, ShortCircuitPreventsSideConditions) {
  // Right operand would divide by zero; short circuit must skip it.
  InterpHarness h("self.flag = false and (1 / self.i == 1);");
  EXPECT_NO_THROW(h.run());
  EXPECT_FALSE(h.flag());
  InterpHarness h2("self.flag = true or (1 / self.i == 1);");
  EXPECT_NO_THROW(h2.run());
  EXPECT_TRUE(h2.flag());
}

// --- strings ------------------------------------------------------------------------

TEST(Interp, StringConcatAndCompare) {
  InterpHarness h("self.s = \"foo\" + \"bar\";\n"
                  "self.flag = self.s == \"foobar\";");
  h.run();
  EXPECT_EQ(h.s(), "foobar");
  EXPECT_TRUE(h.flag());
}

TEST(Interp, IntCompareIsExactInt64) {
  // 2^53 + 1 and 2^53 round to the same double; as ints they differ.
  InterpHarness h("a = 9007199254740993;\nb = 9007199254740992;\n"
                  "self.flag = a > b;\n"
                  "if (a == b)\n  self.i = 1;\nend if;\n"
                  "if (a <= b)\n  self.i = self.i + 2;\nend if;");
  h.run();
  EXPECT_TRUE(h.flag());
  EXPECT_EQ(h.i(), 0);
}

// --- params, locals, control flow ------------------------------------------------------

TEST(Interp, ParamAccess) {
  InterpHarness h("self.i = param.n * 2;");
  h.run(21);
  EXPECT_EQ(h.i(), 42);
}

TEST(Interp, ReadOfUnsetLocalThrows) {
  // `x` is declared by the assignment in the never-taken branch, so the
  // read finds an unset slot.
  InterpHarness h("if (param.n > 0)\n  x = 1;\nend if;\nself.i = x;");
  EXPECT_THROW(h.run(0), ModelError);
}

TEST(Interp, WhileAndBreakContinue) {
  InterpHarness h(
      "acc = 0;\n"
      "k = 0;\n"
      "while (true)\n"
      "  k = k + 1;\n"
      "  if (k % 2 == 0)\n"
      "    continue;\n"
      "  end if;\n"
      "  if (k > 10)\n"
      "    break;\n"
      "  end if;\n"
      "  acc = acc + k;\n"
      "end while;\n"
      "self.i = acc;");  // 1+3+5+7+9 = 25
  h.run();
  EXPECT_EQ(h.i(), 25);
}

TEST(Interp, ReturnStopsAction) {
  InterpHarness h("self.i = 1;\nreturn;\nself.i = 2;");
  h.run();
  EXPECT_EQ(h.i(), 1);
}

TEST(Interp, NestedLoopBreakOnlyInner) {
  InterpHarness h(
      "total = 0;\n"
      "a = 0;\n"
      "while (a < 3)\n"
      "  a = a + 1;\n"
      "  b = 0;\n"
      "  while (true)\n"
      "    b = b + 1;\n"
      "    if (b == 2)\n"
      "      break;\n"
      "    end if;\n"
      "  end while;\n"
      "  total = total + b;\n"
      "end while;\n"
      "self.i = total;");
  h.run();
  EXPECT_EQ(h.i(), 6);
}

// --- instances, selects, relates --------------------------------------------------------

TEST(Interp, CreateSelectRelateDeleteLifecycle) {
  InterpHarness h(
      "create object instance p of Peer;\n"
      "p.tag = 7;\n"
      "relate self to p across R1;\n"
      "select one back related by self->Peer[R1];\n"
      "self.i = back.tag;\n"
      "unrelate self from p across R1;\n"
      "delete object instance p;\n"
      "select any gone from instances of Peer;\n"
      "self.flag = empty gone;");
  h.run();
  EXPECT_EQ(h.i(), 7);
  EXPECT_TRUE(h.flag());
}

TEST(Interp, SelectManyWhereAndCardinality) {
  InterpHarness h(
      "k = 0;\n"
      "while (k < 5)\n"
      "  create object instance p of Peer;\n"
      "  p.tag = k;\n"
      "  k = k + 1;\n"
      "end while;\n"
      "select many evens from instances of Peer where (selected.tag % 2 == 0);\n"
      "self.i = cardinality evens;\n"
      "total = 0;\n"
      "for each p in evens\n"
      "  total = total + p.tag;\n"
      "end for;\n"
      "self.r = total;");
  h.run();
  EXPECT_EQ(h.i(), 3);           // tags 0, 2, 4
  EXPECT_DOUBLE_EQ(h.r(), 6.0);  // 0+2+4
}

TEST(Interp, SelectAnyEmptyGivesNullRef) {
  InterpHarness h("select any p from instances of Peer;\n"
                  "self.flag = empty p;\n"
                  "self.i = cardinality p;");
  h.run();
  EXPECT_TRUE(h.flag());
  EXPECT_EQ(h.i(), 0);
}

TEST(Interp, NotEmptyOnLiveInstance) {
  InterpHarness h("create object instance p of Peer;\n"
                  "self.flag = not_empty p;\n"
                  "self.i = cardinality p;");
  h.run();
  EXPECT_TRUE(h.flag());
  EXPECT_EQ(h.i(), 1);
}

TEST(Interp, AttrAccessOnNullRefThrows) {
  InterpHarness h("self.i = self.ref.tag;");  // ref defaults to null
  EXPECT_THROW(h.run(), ModelError);
}

TEST(Interp, GenerateToNullThrows) {
  InterpHarness h("generate poke() to self.ref;");
  EXPECT_THROW(h.run(), ModelError);
}

TEST(Interp, GenerateReachesPeerStateMachine) {
  InterpHarness h("create object instance p of Peer;\n"
                  "p.tag = 1;\n"
                  "self.ref = p;\n"
                  "generate poke() to p;");
  h.run();
  // Peer's action (tag += 100) ran after the probe's action completed.
  auto peers = h.exec().database().all_of(h.domain().find_class_id("Peer"));
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(h.exec().database().get_attr(
                peers[0], AttributeId(0))),
            101);
}

TEST(Interp, ForEachOverSnapshotSurvivesMutation) {
  // Deleting instances inside the loop must not derail iteration (the set
  // is a snapshot); dead handles reached later still exist in the set but
  // the loop body guards with not_empty.
  InterpHarness h(
      "k = 0;\n"
      "while (k < 3)\n"
      "  create object instance p of Peer;\n"
      "  k = k + 1;\n"
      "end while;\n"
      "select many all from instances of Peer;\n"
      "n = 0;\n"
      "for each p in all\n"
      "  if (not_empty p)\n"
      "    delete object instance p;\n"
      "    n = n + 1;\n"
      "  end if;\n"
      "end for;\n"
      "self.i = n;");
  h.run();
  EXPECT_EQ(h.i(), 3);
  EXPECT_EQ(h.exec().database().live_count(h.domain().find_class_id("Peer")),
            0u);
}

TEST(Interp, RelateDuplicateThrows) {
  InterpHarness h("create object instance p of Peer;\n"
                  "relate self to p across R1;\n"
                  "relate self to p across R1;");
  EXPECT_THROW(h.run(), ModelError);
}

TEST(Interp, UnrelateNonexistentThrows) {
  InterpHarness h("create object instance p of Peer;\n"
                  "unrelate self from p across R1;");
  EXPECT_THROW(h.run(), ModelError);
}

TEST(Interp, SelfEqualityAndRefRoundTrip) {
  InterpHarness h("self.ref = self.ref;\n"  // null -> null
                  "create object instance p of Peer;\n"
                  "self.ref = p;\n"
                  "self.flag = self.ref == p;");
  h.run();
  EXPECT_TRUE(h.flag());
}

// --- typed evaluation: results and op counts -------------------------------------
// The walker evaluates scalar-typed subtrees unboxed. Each case pins the
// result and the op count (one per statement and per expression node), so a
// typed path that skipped or doubled a tick would show here.

struct TypedCase {
  const char* snippet;
  std::int64_t n;          ///< go(n)
  std::uint64_t ops;       ///< ops of the whole action
  const char* attr;        ///< attribute holding the result
  const char* want;        ///< to_string of the result
};

void PrintTo(const TypedCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.snippet) << " -> " << c.attr << " == "
      << c.want << " in " << c.ops << " ops";
}

class TypedEval : public ::testing::TestWithParam<TypedCase> {};

TEST_P(TypedEval, ResultAndOps) {
  const TypedCase& c = GetParam();
  InterpHarness h(c.snippet);
  h.run(c.n);
  EXPECT_EQ(to_string(h.attr(c.attr)), c.want) << c.snippet;
  EXPECT_EQ(h.exec().ops_executed(), c.ops) << c.snippet;
}

INSTANTIATE_TEST_SUITE_P(
    Forms, TypedEval,
    ::testing::Values(
        // int arithmetic and %
        TypedCase{"self.i = (7 + 5) * 3 - 20 / 3 % 4;", 0, 13, "i", "34"},
        // int compares in while and if
        TypedCase{"k = 0;\nwhile (k < 5)\n  k = k + 1;\nend while;\n"
                  "if (k >= 5)\n  self.i = k;\nend if;",
                  0, 48, "i", "5"},
        // in-place assignment to an int local
        TypedCase{"x = 1;\nx = x * 10;\nx = x + param.n;\nself.i = x;", 7, 13,
                  "i", "17"},
        // an int assigned to a real local widens, so x / 2 divides as real
        TypedCase{"x = 0.5;\nx = 3;\nx = x / 2;\nself.r = x;", 0, 11, "r",
                  "1.5"},
        // mixed int/real falls back to real; int/int stays int
        TypedCase{"self.r = 7 / 2 + 7 / 2.0;", 0, 9, "r", "6.5"},
        TypedCase{"self.flag = 3 < 3.5 and 2.0 == 2;", 0, 9, "flag", "true"},
        // and/or short-circuit: the right operand is not evaluated
        TypedCase{"self.flag = (1 > 2) and (3 > 1);", 0, 6, "flag", "false"},
        TypedCase{"self.flag = (1 < 2) or (3 > 1);", 0, 6, "flag", "true"},
        TypedCase{"self.flag = (1 < 2) and (3 > 1);", 0, 9, "flag", "true"},
        // not
        TypedCase{"self.flag = not (param.n == 3);", 3, 6, "flag", "false"},
        // an int argument to a real parameter arrives widened, so the
        // receiver divides as real (as it does when the signal crosses a bus)
        TypedCase{"generate half(x: 5) to self;", 0, 8, "r", "2.5"},
        // mem.read in an int context (the executor's flat memory)
        TypedCase{"mem.write(16, 5);\nself.i = mem.read(8 + 8) * 2 + 1;", 0,
                  13, "i", "11"}));

/// The ModelError text a snippet dies with.
std::string error_of(const std::string& snippet, std::int64_t n = 0) {
  InterpHarness h(snippet);
  try {
    h.run(n);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(Interp, ErrorTextsUnchanged) {
  EXPECT_EQ(error_of("if (param.n > 0)\n  x = 1;\nend if;\nself.i = x + 1;"),
            "read of unset variable 'x'");
  EXPECT_EQ(error_of("self.i = 1 / (self.i - 0);"), "integer division by zero");
  EXPECT_EQ(error_of("self.i = 1 % self.i;"), "modulo by zero");
  EXPECT_EQ(error_of("k = 0;\nwhile (k < 1)\n  self.flag = k > 1;\nend while;"),
            "action exceeded op limit (runaway loop?)");
}

// --- values entering the model are held to their declared types -------------------

TEST(Interp, InjectRejectsIllTypedArguments) {
  InterpHarness h("self.i = param.n;");
  try {
    h.exec().inject(h.probe(), "go", {Value(1.5)});
    ADD_FAILURE() << "a real argument for an int parameter was accepted";
  } catch (const ModelError& e) {
    EXPECT_EQ(std::string(e.what()),
              "inject: parameter 'n' of event 'go' is int, cannot take real "
              "1.5");
  }
  EXPECT_THROW(h.exec().inject(h.probe(), "go", {Value(true)}), ModelError);
  EXPECT_THROW(h.exec().inject(h.probe(), "go", {}), ModelError);
  EXPECT_THROW(h.exec().inject(h.probe(), "go", {Value(1), Value(2)}),
               ModelError);
  h.run(4);  // a well-typed inject still runs
  EXPECT_EQ(h.i(), 4);
}

TEST(Interp, InjectWidensIntToRealParameter) {
  InterpHarness h("generate half(x: 3) to self;");
  h.run();  // S1 -> S2 on the generated half(3)
  EXPECT_DOUBLE_EQ(h.r(), 1.5);
  h.exec().inject(h.probe(), "half", {Value(std::int64_t{5})});
  h.exec().run_all();
  EXPECT_DOUBLE_EQ(h.r(), 2.5);
}

// --- int overflow: two's-complement wrap ---------------------------------------------

class IntWrap : public ::testing::TestWithParam<ArithCase> {};

TEST_P(IntWrap, Evaluates) {
  // go(-1) supplies the divisor, so no constant is folded anywhere.
  InterpHarness h(std::string("m = 0 - 9223372036854775807 - 1;\n"
                              "self.i = ") +
                  GetParam().expr + ";");
  h.run(-1);
  EXPECT_EQ(h.i(), GetParam().want) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntWrap,
    ::testing::Values(ArithCase{"m / param.n", INT64_MIN},
                      ArithCase{"m % param.n", 0},
                      ArithCase{"m - 1", INT64_MAX},
                      ArithCase{"(m - 1) + 1", INT64_MIN},
                      ArithCase{"9223372036854775807 * 2", -2},
                      ArithCase{"-m", INT64_MIN},
                      ArithCase{"7 / param.n + 7 % param.n", -7}));

}  // namespace
}  // namespace xtsoc::runtime
