#include <gtest/gtest.h>

#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/oal/lexer.hpp"
#include "xtsoc/oal/parser.hpp"
#include "xtsoc/oal/printer.hpp"
#include "xtsoc/oal/sema.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::oal {
namespace {

using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;
using xtuml::Multiplicity;
using xtuml::ScalarValue;

// --- lexer -------------------------------------------------------------------

TEST(Lexer, Punctuation) {
  DiagnosticSink sink;
  auto toks = lex("( ) [ ] , ; : . -> = == != < <= > >= + - * / %", sink);
  EXPECT_FALSE(sink.has_errors());
  std::vector<TokKind> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  std::vector<TokKind> want = {
      TokKind::kLParen, TokKind::kRParen, TokKind::kLBracket,
      TokKind::kRBracket, TokKind::kComma, TokKind::kSemi, TokKind::kColon,
      TokKind::kDot, TokKind::kArrow, TokKind::kAssign, TokKind::kEq,
      TokKind::kNe, TokKind::kLt, TokKind::kLe, TokKind::kGt, TokKind::kGe,
      TokKind::kPlus, TokKind::kMinus, TokKind::kStar, TokKind::kSlash,
      TokKind::kPercent, TokKind::kEof};
  EXPECT_EQ(kinds, want);
}

TEST(Lexer, KeywordsVsIdentifiers) {
  DiagnosticSink sink;
  auto toks = lex("select selector if iffy", sink);
  EXPECT_EQ(toks[0].kind, TokKind::kKwSelect);
  EXPECT_EQ(toks[1].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].text, "selector");
  EXPECT_EQ(toks[2].kind, TokKind::kKwIf);
  EXPECT_EQ(toks[3].kind, TokKind::kIdent);
}

TEST(Lexer, Numbers) {
  DiagnosticSink sink;
  auto toks = lex("42 3.5 0", sink);
  EXPECT_EQ(toks[0].kind, TokKind::kIntLit);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokKind::kRealLit);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 3.5);
  EXPECT_EQ(toks[2].int_value, 0);
}

TEST(Lexer, StringsWithEscapes) {
  DiagnosticSink sink;
  auto toks = lex(R"("hello\nworld" "a\"b")", sink);
  EXPECT_FALSE(sink.has_errors());
  EXPECT_EQ(toks[0].text, "hello\nworld");
  EXPECT_EQ(toks[1].text, "a\"b");
}

TEST(Lexer, UnterminatedString) {
  DiagnosticSink sink;
  lex("\"oops", sink);
  EXPECT_TRUE(sink.has_errors());
}

TEST(Lexer, Comments) {
  DiagnosticSink sink;
  auto toks = lex("x -- this is a comment\ny", sink);
  ASSERT_EQ(toks.size(), 3u);  // x, y, eof
  EXPECT_EQ(toks[0].text, "x");
  EXPECT_EQ(toks[1].text, "y");
}

TEST(Lexer, LocationsTracked) {
  DiagnosticSink sink;
  auto toks = lex("a\n  b", sink);
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[1].loc.column, 3);
}

TEST(Lexer, BadCharacterReported) {
  DiagnosticSink sink;
  lex("a @ b", sink);
  EXPECT_TRUE(sink.has_errors());
}

// --- parser -------------------------------------------------------------------

Block parse_ok(std::string_view src) {
  DiagnosticSink sink;
  Block b = parse(src, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  return b;
}

void expect_parse_error(std::string_view src) {
  DiagnosticSink sink;
  parse(src, sink);
  EXPECT_TRUE(sink.has_errors()) << "expected a parse error for: " << src;
}

TEST(Parser, Assignment) {
  Block b = parse_ok("x = 1 + 2 * 3;");
  ASSERT_EQ(b.stmts.size(), 1u);
  EXPECT_EQ(b.stmts[0]->kind, StmtKind::kAssign);
  // precedence: 1 + (2*3)
  EXPECT_EQ(print(*b.stmts[0]), "x = 1 + 2 * 3;\n");
}

TEST(Parser, PrecedenceAndParens) {
  Block b = parse_ok("x = (1 + 2) * 3;");
  EXPECT_EQ(print(*b.stmts[0]), "x = (1 + 2) * 3;\n");
}

TEST(Parser, RightAssociativityParens) {
  Block b = parse_ok("x = 1 - (2 - 3);");
  EXPECT_EQ(print(*b.stmts[0]), "x = 1 - (2 - 3);\n");
}

TEST(Parser, AttributeAssignment) {
  Block b = parse_ok("self.count = self.count + 1;");
  EXPECT_EQ(print(*b.stmts[0]), "self.count = self.count + 1;\n");
}

TEST(Parser, IfElifElse) {
  Block b = parse_ok(
      "if (x > 0)\n  y = 1;\nelif (x < 0)\n  y = 2;\nelse\n  y = 3;\nend if;");
  ASSERT_EQ(b.stmts.size(), 1u);
  const auto& i = static_cast<const IfStmt&>(*b.stmts[0]);
  EXPECT_EQ(i.branches.size(), 2u);
  EXPECT_TRUE(i.else_body.has_value());
}

TEST(Parser, WhileWithBreakContinue) {
  Block b = parse_ok("while (x < 10)\n  x = x + 1;\n  if (x == 5)\n    break;"
                     "\n  end if;\n  continue;\nend while;");
  ASSERT_EQ(b.stmts.size(), 1u);
  EXPECT_EQ(b.stmts[0]->kind, StmtKind::kWhile);
}

TEST(Parser, SelectFromInstances) {
  Block b = parse_ok(
      "select many lights from instances of Light where (selected.on == true);");
  const auto& s = static_cast<const SelectFromStmt&>(*b.stmts[0]);
  EXPECT_TRUE(s.many);
  EXPECT_EQ(s.var, "lights");
  EXPECT_EQ(s.class_name, "Light");
  EXPECT_NE(s.where, nullptr);
}

TEST(Parser, SelectRelated) {
  Block b = parse_ok("select one ctrl related by self->Controller[R3];");
  const auto& s = static_cast<const SelectRelatedStmt&>(*b.stmts[0]);
  EXPECT_FALSE(s.many);
  EXPECT_EQ(s.class_name, "Controller");
  EXPECT_EQ(s.assoc_name, "R3");
}

TEST(Parser, GenerateWithArgsAndDelay) {
  Block b = parse_ok("generate start(seconds: 30, turbo: true) to oven delay 5;");
  const auto& g = static_cast<const GenerateStmt&>(*b.stmts[0]);
  EXPECT_EQ(g.event_name, "start");
  EXPECT_EQ(g.args.size(), 2u);
  EXPECT_EQ(g.args[0].name, "seconds");
  EXPECT_NE(g.delay, nullptr);
}

TEST(Parser, CreateDeleteRelateUnrelate) {
  Block b = parse_ok(
      "create object instance d of Dog;\n"
      "relate d to self across R1;\n"
      "unrelate d from self across R1;\n"
      "delete object instance d;");
  EXPECT_EQ(b.stmts.size(), 4u);
  EXPECT_EQ(b.stmts[0]->kind, StmtKind::kCreate);
  EXPECT_EQ(b.stmts[1]->kind, StmtKind::kRelate);
  EXPECT_EQ(b.stmts[2]->kind, StmtKind::kUnrelate);
  EXPECT_EQ(b.stmts[3]->kind, StmtKind::kDelete);
}

TEST(Parser, ForEach) {
  Block b = parse_ok("for each l in lights\n  generate off() to l;\nend for;");
  const auto& f = static_cast<const ForEachStmt&>(*b.stmts[0]);
  EXPECT_EQ(f.var, "l");
  EXPECT_EQ(f.body.stmts.size(), 1u);
}

TEST(Parser, UnaryOperators) {
  parse_ok("x = -y;");
  parse_ok("x = not y;");
  parse_ok("x = empty y;");
  parse_ok("x = not_empty y;");
  parse_ok("x = cardinality y;");
}

TEST(Parser, LogStatement) {
  Block b = parse_ok("log \"value\", x, 42;");
  const auto& l = static_cast<const LogStmt&>(*b.stmts[0]);
  EXPECT_EQ(l.args.size(), 3u);
}

TEST(Parser, ParamAccess) {
  Block b = parse_ok("x = param.seconds + 1;");
  EXPECT_EQ(print(*b.stmts[0]), "x = param.seconds + 1;\n");
}

TEST(Parser, Errors) {
  expect_parse_error("x = ;");
  expect_parse_error("if (x) end while;");
  expect_parse_error("generate f() oven;");      // missing 'to'
  expect_parse_error("select x from instances of C;");  // missing any/many
  expect_parse_error("x = 1");                   // missing semicolon
  expect_parse_error("create object x of C;");   // missing 'instance'
}

TEST(Parser, RecoversAndReportsMultipleErrors) {
  DiagnosticSink sink;
  parse("x = ;\ny = ;\n", sink);
  EXPECT_GE(sink.error_count(), 2u);
}

// Round-trip property: print(parse(s)) is a fixpoint.
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, PrintParsePrintIsStable) {
  DiagnosticSink sink;
  Block b1 = parse(GetParam(), sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  std::string p1 = print(b1);
  Block b2 = parse(p1, sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  EXPECT_EQ(p1, print(b2));
}

INSTANTIATE_TEST_SUITE_P(
    OalSnippets, RoundTrip,
    ::testing::Values(
        "x = 1;",
        "x = 1 + 2 * (3 - 4) / 5 % 2;",
        "x = a and b or not c;",
        "x = empty y or not_empty z;",
        "self.n = cardinality dogs;",
        "if (a == b)\n x = 1;\nelse\n x = 2;\nend if;",
        "while (i < 10)\n i = i + 1;\nend while;",
        "for each d in dogs\n generate bark() to d;\nend for;",
        "select any d from instances of Dog;",
        "select many ds from instances of Dog where (selected.age > 2);",
        "select one o related by self->Owner[R1];",
        "create object instance d of Dog;\ndelete object instance d;",
        "generate feed(amount: 3) to d delay 10;",
        "relate a to b across R2;",
        "log \"x is\", x;",
        "return;"));

// --- sema ---------------------------------------------------------------------

/// Domain used by most sema tests:
///   Dog (age: int, name: string, happy: bool, weight: real)
///     events: poke(), feed(amount: int), walk(km: real)
///     states: Idle -> poke -> Excited; Excited -> feed(amount) -> Eating
///   Owner (budget: int), R1: Owner 1 -- * Dog
Domain make_sema_domain() {
  DomainBuilder b("Kennel");
  b.cls("Dog", "DOG")
      .attr("age", DataType::kInt)
      .attr("name", DataType::kString)
      .attr("happy", DataType::kBool)
      .attr("weight", DataType::kReal)
      .event("poke")
      .event("feed", {{"amount", DataType::kInt}})
      .event("walk", {{"km", DataType::kReal}})
      .state("Idle")
      .state("Excited")
      .state("Eating")
      .transition("Idle", "poke", "Excited")
      .transition("Excited", "feed", "Eating")
      .transition("Eating", "poke", "Excited");
  b.cls("Owner", "OWN").attr("budget", DataType::kInt);
  b.assoc("R1", "Owner", "keeps", Multiplicity::kZeroOne, "Dog", "kept_by",
          Multiplicity::kZeroMany);
  return std::move(*b.take());
}

AnalyzedAction analyze_ok(const Domain& d, std::string_view src,
                          std::vector<xtuml::Parameter> params = {}) {
  DiagnosticSink sink;
  Block b = parse(src, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  AnalyzedAction a = analyze_block(d, d.find_class_id("Dog"), std::move(b),
                                   std::move(params), sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  return a;
}

void expect_sema_error(const Domain& d, std::string_view src,
                       std::string_view code,
                       std::vector<xtuml::Parameter> params = {}) {
  DiagnosticSink sink;
  Block b = parse(src, sink);
  ASSERT_FALSE(sink.has_errors()) << sink.to_string();
  analyze_block(d, d.find_class_id("Dog"), std::move(b), std::move(params),
                sink);
  ASSERT_TRUE(sink.has_errors()) << "expected error " << code << " for: " << src;
  EXPECT_NE(sink.to_string().find(code), std::string::npos) << sink.to_string();
}

TEST(Sema, LocalDeclarationAndUse) {
  Domain d = make_sema_domain();
  AnalyzedAction a = analyze_ok(d, "x = 1;\ny = x + 2;");
  EXPECT_EQ(a.frame_size, 2);
  EXPECT_EQ(a.locals[0].name, "x");
  EXPECT_EQ(a.locals[0].type, OalType::scalar(DataType::kInt));
}

TEST(Sema, UnknownVariable) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "x = y;", "oal.sema.unknown_var");
}

TEST(Sema, RetypeRejected) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "x = 1;\nx = \"str\";", "oal.sema.retype");
}

TEST(Sema, IntToRealWideningOk) {
  Domain d = make_sema_domain();
  analyze_ok(d, "x = 1.5;\nx = 2;");            // real var accepts int
  analyze_ok(d, "self.weight = 3;");            // real attr accepts int
}

TEST(Sema, RealToIntRejected) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "self.age = 2.5;", "oal.sema.assign_type");
}

TEST(Sema, SelfAttributes) {
  Domain d = make_sema_domain();
  AnalyzedAction a = analyze_ok(d, "self.age = self.age + 1;");
  EXPECT_EQ(a.frame_size, 0);
}

TEST(Sema, UnknownAttribute) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "self.tail = 1;", "oal.sema.unknown_attr");
}

TEST(Sema, AttrOnNonInstance) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "x = 1;\ny = x.age;", "oal.sema.attr_base");
}

TEST(Sema, ParamsBindAgainstSignature) {
  Domain d = make_sema_domain();
  AnalyzedAction a = analyze_ok(d, "self.age = param.amount;",
                                {{"amount", DataType::kInt}});
  EXPECT_EQ(a.params.size(), 1u);
}

TEST(Sema, UnknownParam) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "x = param.nope;", "oal.sema.unknown_param");
}

TEST(Sema, GenerateChecksArgsAndTypes) {
  Domain d = make_sema_domain();
  analyze_ok(d, "generate feed(amount: 3) to self;");
  expect_sema_error(d, "generate feed() to self;", "oal.sema.generate_missing");
  expect_sema_error(d, "generate feed(amount: 3, amount: 4) to self;",
                    "oal.sema.generate_dup");
  expect_sema_error(d, "generate feed(amount: \"x\") to self;",
                    "oal.sema.generate_type");
  expect_sema_error(d, "generate nope() to self;", "oal.sema.unknown_event");
  expect_sema_error(d, "generate feed(amount: 1) to 3;",
                    "oal.sema.generate_target");
}

TEST(Sema, GenerateWidensIntArgToRealParam) {
  Domain d = make_sema_domain();
  analyze_ok(d, "generate walk(km: 2) to self;");
}

TEST(Sema, DelayMustBeInt) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "generate poke() to self delay 1.5;", "oal.sema.delay");
}

TEST(Sema, SelectFromDeclaresVar) {
  Domain d = make_sema_domain();
  AnalyzedAction a =
      analyze_ok(d, "select many ds from instances of Dog;\n"
                    "n = cardinality ds;");
  EXPECT_EQ(a.locals[0].type, OalType::inst_set(d.find_class_id("Dog")));
  EXPECT_EQ(a.locals[1].type, OalType::scalar(DataType::kInt));
}

TEST(Sema, SelectWhereBindsSelected) {
  Domain d = make_sema_domain();
  analyze_ok(d, "select many ds from instances of Dog where (selected.age > 2);");
  expect_sema_error(d, "x = selected.age;", "oal.sema.selected");
}

TEST(Sema, SelectRelatedChecksAssociation) {
  Domain d = make_sema_domain();
  analyze_ok(d, "select one o related by self->Owner[R1];");
  expect_sema_error(d, "select one o related by self->Owner[R9];",
                    "oal.sema.unknown_assoc");
  expect_sema_error(d, "select one o related by self->Dog[R1];",
                    "oal.sema.select_class");
}

TEST(Sema, RelateChecksClasses) {
  Domain d = make_sema_domain();
  analyze_ok(d, "select one o related by self->Owner[R1];\n"
                "unrelate self from o across R1;\n"
                "relate self to o across R1;");
  expect_sema_error(d, "relate self to self across R1;",
                    "oal.sema.relate_classes");
}

TEST(Sema, ForEachRequiresSet) {
  Domain d = make_sema_domain();
  analyze_ok(d, "select many ds from instances of Dog;\n"
                "for each x in ds\n  generate poke() to x;\nend for;");
  expect_sema_error(d, "x = 1;\nfor each y in x\nend for;", "oal.sema.foreach");
}

TEST(Sema, BreakOutsideLoop) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "break;", "oal.sema.loopctl");
}

TEST(Sema, ConditionsMustBeBool) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "if (1)\nend if;", "oal.sema.cond");
  expect_sema_error(d, "while (\"s\")\nend while;", "oal.sema.cond");
}

TEST(Sema, ArithmeticTypeErrors) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "x = true + 1;", "oal.sema.arith");
  expect_sema_error(d, "x = 1.5 % 2;", "oal.sema.mod");
  expect_sema_error(d, "x = \"a\" and true;", "oal.sema.logic");
  expect_sema_error(d, "x = self < self;", "oal.sema.cmp");
}

TEST(Sema, StringConcatAndCompare) {
  Domain d = make_sema_domain();
  analyze_ok(d, "s = \"a\" + \"b\";\nb = \"a\" < \"b\";\ne = \"a\" == \"b\";");
}

TEST(Sema, InstanceEqualityOk) {
  Domain d = make_sema_domain();
  analyze_ok(d, "select any a from instances of Dog;\nb = a == self;");
}

TEST(Sema, CreateUnknownClass) {
  Domain d = make_sema_domain();
  expect_sema_error(d, "create object instance x of Cat;",
                    "oal.sema.unknown_class");
}

TEST(Sema, EntrySignatureAgreement) {
  // Two events with different signatures entering the same state -> error.
  DomainBuilder b("D");
  b.cls("A")
      .event("e1", {{"x", DataType::kInt}})
      .event("e2", {{"y", DataType::kBool}})
      .state("S0")
      .state("S1")
      .transition("S0", "e1", "S1")
      .transition("S0", "e2", "S1");
  DiagnosticSink sink;
  const xtuml::ClassDef& cls = *b.domain().find_class("A");
  entry_signature(cls, cls.find_state("S1")->id, sink);
  EXPECT_TRUE(sink.has_errors());
}

TEST(Sema, EntrySignatureSharedOk) {
  DomainBuilder b("D");
  b.cls("A")
      .event("e1", {{"x", DataType::kInt}})
      .event("e2", {{"x", DataType::kInt}})
      .state("S0")
      .state("S1")
      .transition("S0", "e1", "S1")
      .transition("S0", "e2", "S1");
  DiagnosticSink sink;
  const xtuml::ClassDef& cls = *b.domain().find_class("A");
  auto sig = entry_signature(cls, cls.find_state("S1")->id, sink);
  EXPECT_FALSE(sink.has_errors());
  ASSERT_EQ(sig.size(), 1u);
  EXPECT_EQ(sig[0].name, "x");
}

// --- compile_domain ------------------------------------------------------------

TEST(CompileDomain, CompilesValidModel) {
  DomainBuilder b("D");
  b.cls("Counter")
      .attr("n", DataType::kInt)
      .event("bump")
      .state("Counting", "self.n = self.n + 1;")
      .transition("Counting", "bump", "Counting");
  DiagnosticSink sink;
  auto cd = compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();
  const AnalyzedAction& a =
      cd->action(b.domain().find_class_id("Counter"), StateId(0));
  EXPECT_EQ(a.ast.stmts.size(), 1u);
}

TEST(CompileDomain, RejectsBadAction) {
  DomainBuilder b("D");
  b.cls("Counter")
      .attr("n", DataType::kInt)
      .event("bump")
      .state("Counting", "self.nope = 1;")
      .transition("Counting", "bump", "Counting");
  DiagnosticSink sink;
  auto cd = compile_domain(b.domain(), sink);
  EXPECT_EQ(cd, nullptr);
  EXPECT_TRUE(sink.has_errors());
}

TEST(CompileDomain, RejectsInvalidModel) {
  Domain d("D");
  d.add_class("A");
  d.add_class("A");
  DiagnosticSink sink;
  EXPECT_EQ(compile_domain(d, sink), nullptr);
}

}  // namespace
}  // namespace xtsoc::oal
