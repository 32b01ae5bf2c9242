// Property-based conformance testing: randomized models x randomized
// partitions x randomized workloads, all seeded and reproducible.
//
// Generator invariants (so that the STRICT projection equivalence is the
// right relation — see DESIGN.md §6):
//   * the classes form a forwarding chain: every class receives signals
//     from exactly one sender (single-sender topology);
//   * all data is int-typed (hardware-safe), actions are arithmetic plus a
//     conditional forward;
//   * every state machine is a cycle over its states on one event.
//
// Property: for ANY mark assignment, the partitioned co-simulation produces
// per-instance projections identical to the abstract execution, identical
// final states, and a causal abstract trace.

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <sstream>

#include "xtsoc/common/rng.hpp"
#include "xtsoc/common/strings.hpp"
#include "xtsoc/core/project.hpp"
#include "xtsoc/core/stimulus.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/noc/traffic.hpp"
#include "xtsoc/oal/parser.hpp"
#include "xtsoc/oal/printer.hpp"
#include "xtsoc/text/xtm.hpp"
#include "xtsoc/verify/testcase.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc {
namespace {

using runtime::Value;
using xtuml::DataType;

struct GeneratedModel {
  std::unique_ptr<xtuml::Domain> domain;
  int n_classes = 0;
};

/// Random arithmetic expression over self.a, self.b and param.v.
std::string random_expr(Rng& rng) {
  static const char* kAtoms[] = {"self.a", "self.b", "param.v", "3", "7", "11"};
  static const char* kOps[] = {" + ", " - ", " * "};
  std::string e = kAtoms[rng.below(6)];
  int terms = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < terms; ++i) {
    e += kOps[rng.below(3)];
    e += kAtoms[rng.below(6)];
  }
  // Keep values bounded so repeated multiplication cannot overflow.
  return "(" + e + ") % 9973";
}

GeneratedModel generate_model(std::uint64_t seed) {
  Rng rng(seed);
  GeneratedModel gm;
  gm.n_classes = static_cast<int>(rng.range(3, 6));

  xtuml::DomainBuilder b("Gen");
  for (int i = 0; i < gm.n_classes; ++i) b.cls("C" + std::to_string(i));

  for (int i = 0; i < gm.n_classes; ++i) {
    auto cb = b.edit("C" + std::to_string(i));
    cb.attr("a", DataType::kInt).attr("b", DataType::kInt);
    const bool terminal = i == gm.n_classes - 1;
    if (!terminal) cb.ref_attr("next", "C" + std::to_string(i + 1));
    cb.event("msg", {{"v", DataType::kInt}});

    int n_states = static_cast<int>(rng.range(1, 3));
    for (int s = 0; s < n_states; ++s) {
      std::string action;
      action += "self.a = " + random_expr(rng) + ";\n";
      if (rng.chance(0.7)) {
        action += "self.b = " + random_expr(rng) + ";\n";
      }
      if (rng.chance(0.5)) {
        action += "if (param.v % 3 == 0)\n  self.b = self.b + 1;\nend if;\n";
      }
      if (!terminal) {
        // Forward (sometimes conditionally, but deterministically).
        if (rng.chance(0.3)) {
          action += "if (param.v % 2 == 0)\n"
                    "  generate msg(v: " + random_expr(rng) +
                    ") to self.next;\n"
                    "else\n"
                    "  generate msg(v: param.v + 1) to self.next;\n"
                    "end if;\n";
        } else {
          action += "generate msg(v: " + random_expr(rng) +
                    ") to self.next;\n";
        }
      }
      cb.state("S" + std::to_string(s), action);
    }
    for (int s = 0; s < n_states; ++s) {
      cb.transition("S" + std::to_string(s), "msg",
                    "S" + std::to_string((s + 1) % n_states));
    }
  }
  gm.domain = b.take();
  return gm;
}

marks::MarkSet random_marks(std::uint64_t seed, int n_classes) {
  Rng rng(seed * 7919 + 13);
  marks::MarkSet m;
  for (int i = 0; i < n_classes; ++i) {
    if (rng.chance(0.5)) m.mark_hardware("C" + std::to_string(i));
  }
  if (rng.chance(0.5)) {
    m.set_domain_mark(marks::kBusLatency,
                      xtuml::ScalarValue(rng.range(0, 8)));
  }
  return m;
}

verify::TestCase random_stimuli(std::uint64_t seed, int n_classes) {
  Rng rng(seed * 104729 + 7);
  verify::TestCase t;
  t.name = "property workload";
  // Population: one instance per class, chained via 'next'.
  for (int i = 0; i < n_classes; ++i) {
    verify::InstanceSpec spec;
    spec.name = "c" + std::to_string(i);
    spec.cls = "C" + std::to_string(i);
    if (i + 1 < n_classes) {
      spec.attrs.push_back(
          {"next", verify::RefByName{"c" + std::to_string(i + 1)}});
    }
    t.population.push_back(std::move(spec));
  }
  int msgs = static_cast<int>(rng.range(4, 24));
  for (int i = 0; i < msgs; ++i) {
    t.stimuli.push_back({"c0", "msg", {Value(rng.range(0, 1000))}, 0});
  }
  return t;
}

class RandomModelConformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModelConformance, EveryPartitionPreservesBehaviour) {
  std::uint64_t seed = GetParam();
  GeneratedModel gm = generate_model(seed);
  marks::MarkSet marks = random_marks(seed, gm.n_classes);
  std::string marks_desc = marks.to_text();

  DiagnosticSink sink;
  auto project =
      core::Project::from_domain(std::move(gm.domain), std::move(marks), sink);
  ASSERT_NE(project, nullptr) << "seed " << seed << ":\n" << sink.to_string();

  verify::TestCase test = random_stimuli(seed, gm.n_classes);
  verify::ConformanceReport cr = project->run_conformance(test);
  EXPECT_TRUE(cr.abstract_run.passed)
      << "seed " << seed << "\n" << cr.abstract_run.to_string();
  EXPECT_TRUE(cr.cosim_run.passed)
      << "seed " << seed << "\n" << cr.cosim_run.to_string();
  EXPECT_TRUE(cr.equivalence.equivalent)
      << "seed " << seed << " marks:\n" << marks_desc << "\n"
      << cr.equivalence.to_string();

  // Causality on a fresh abstract run.
  verify::AbstractRunner abs(project->compiled());
  abs.run(test);
  std::string err;
  EXPECT_TRUE(verify::check_causality(abs.executor().trace(), &err))
      << "seed " << seed << ": " << err;

  // Final states agree too (implied by projections here, but checked via
  // the independent database-level comparison).
  verify::CosimRunner part(project->system());
  part.run(test);
  auto finals = verify::compare_final_states(
      abs.executor().database(), {&part.cosim().hw_executor().database(),
                                  &part.cosim().sw_executor().database()});
  EXPECT_TRUE(finals.equivalent)
      << "seed " << seed << "\n" << finals.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelConformance,
                         ::testing::Range<std::uint64_t>(1, 25));

/// The generated model must also survive the full text and codegen paths.
class RandomModelToolchain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModelToolchain, RoundTripsAndGenerates) {
  std::uint64_t seed = GetParam();
  GeneratedModel gm = generate_model(seed);
  marks::MarkSet marks = random_marks(seed, gm.n_classes);

  // xtm round trip.
  std::string xtm = text::write_xtm(*gm.domain);
  DiagnosticSink sink;
  auto project = core::Project::from_xtm(xtm, marks.to_text(), sink);
  ASSERT_NE(project, nullptr) << "seed " << seed << ":\n" << sink.to_string()
                              << "\n" << xtm;
  EXPECT_EQ(project->domain().class_count(),
            static_cast<std::size_t>(gm.n_classes));

  // Codegen of both halves.
  codegen::Output out = project->generate_all(sink);
  EXPECT_FALSE(sink.has_errors()) << "seed " << seed << "\n" << sink.to_string();
  EXPECT_GT(out.total_lines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelToolchain,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- parser robustness: hostile input must produce diagnostics, never UB ------

std::string random_garbage(Rng& rng, std::size_t len) {
  static const char* kTokens[] = {
      "select", "generate", "if", "end", "while", "for", "each", "create",
      "delete", "relate", "self", "param", ".", ";", "(", ")", "[", "]",
      "->", "=", "==", "+", "-", "*", "/", "%", "\"str", "\"s\"", "123",
      "4.5", "x", "y", "Class", "R1", "where", "to", "across", "{", "}",
      "\n", "@", "~", "--", "0x", "..", ":::"};
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out += kTokens[rng.below(sizeof(kTokens) / sizeof(kTokens[0]))];
    out += ' ';
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, OalParserNeverCrashes) {
  Rng rng(GetParam() * 31 + 7);
  for (int round = 0; round < 50; ++round) {
    std::string src = random_garbage(rng, rng.below(40) + 1);
    DiagnosticSink sink;
    oal::Block b = oal::parse(src, sink);
    // Whatever came back must survive printing too.
    std::string printed = oal::print(b);
    (void)printed;
  }
}

TEST_P(ParserFuzz, XtmParserNeverCrashes) {
  Rng rng(GetParam() * 97 + 3);
  static const char* kLines[] = {
      "domain D", "class A", "class", "end", "attr x : int = 5",
      "attr y : ref", "attr : int", "event e(a : int, b : )", "state S {",
      "}", "transition A on e -> B", "initial", "assoc R1 A x 1 -- B y *",
      "on_unexpected maybe", "garbage line here", "attr z : real = 1.2.3",
      "  state T final {", "event ()"};
  for (int round = 0; round < 50; ++round) {
    std::string src;
    std::size_t n = rng.below(15) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      src += kLines[rng.below(sizeof(kLines) / sizeof(kLines[0]))];
      src += '\n';
    }
    DiagnosticSink sink;
    auto d = text::parse_xtm(src, sink);
    if (d != nullptr) {
      // Anything accepted must also re-serialize without crashing.
      std::string out = text::write_xtm(*d);
      (void)out;
    }
  }
}

TEST_P(ParserFuzz, MarksParserNeverCrashes) {
  Rng rng(GetParam() * 13 + 1);
  static const char* kPieces[] = {"A.",    "domain.", "=",      "true",
                                  "1.5",   "\"x",     "isHard", "#c",
                                  "..",    "B.k = ",  "1e99",   " "};
  for (int round = 0; round < 50; ++round) {
    std::string src;
    std::size_t n = rng.below(10) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      src += kPieces[rng.below(sizeof(kPieces) / sizeof(kPieces[0]))];
      if (rng.chance(0.4)) src += '\n';
    }
    DiagnosticSink sink;
    marks::MarkSet m = marks::MarkSet::from_text(src, sink);
    (void)m;
  }
}

// --- marks fuzz: what validate accepts elaborates and runs ----------------

/// C0 -> C1 -> ... forwarding chain of `n` int-only classes.
std::unique_ptr<xtuml::Domain> chain_domain(int n) {
  xtuml::DomainBuilder b("Fz");
  for (int i = 0; i < n; ++i) b.cls("C" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    auto cb = b.edit("C" + std::to_string(i));
    cb.attr("a", DataType::kInt);
    std::string action = "self.a = self.a + param.v;\n";
    if (i + 1 < n) {
      cb.ref_attr("next", "C" + std::to_string(i + 1));
      action += "generate msg(v: param.v + 1) to self.next;\n";
    }
    cb.event("msg", {{"v", DataType::kInt}});
    cb.state("S0", action);
    cb.transition("S0", "msg", "S0");
  }
  return b.take();
}

/// A value for `spec` around its declared bounds: min - 1, min, a typical
/// value, max + 1 where there is a max, or a value of the wrong type.
xtuml::ScalarValue fuzz_value(const marks::MarkSpec& spec, Rng& rng) {
  using xtuml::ScalarValue;
  const ScalarValue wrong_type(std::string("x"));
  switch (spec.kind) {
    case marks::Kind::kBool:
      return rng.chance(0.8) ? ScalarValue(rng.chance(0.7))
                             : ScalarValue(std::int64_t{1});
    case marks::Kind::kString: {
      const auto choices = split(spec.choices, '|');
      if (rng.chance(0.8)) {
        return ScalarValue(choices[rng.below(choices.size())]);
      }
      return rng.chance(0.5) ? ScalarValue(std::string("bogus"))
                             : ScalarValue(std::int64_t{1});
    }
    case marks::Kind::kInt:
    case marks::Kind::kNumber:
      break;
  }
  // Mostly in range, so that most cases reach elaboration.
  const bool number = spec.kind == marks::Kind::kNumber;
  const std::uint64_t pick = rng.below(10);
  if (pick == 0) return ScalarValue(spec.min - 1);
  if (pick == 1) return wrong_type;
  if (pick == 2 && spec.max != marks::kNoMax) return ScalarValue(spec.max + 1);
  if (pick < 5) return ScalarValue(spec.min);
  if (number) return ScalarValue(0.05 * static_cast<double>(rng.below(4)));
  if (spec.pow2) return ScalarValue(std::int64_t{1} << rng.below(4));
  return ScalarValue(spec.min + static_cast<std::int64_t>(rng.below(4)));
}

class MarksFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarksFuzz, AcceptedMarksElaborateAndRun) {
  Rng rng(GetParam() * 31 + 5);
  const std::size_t n_specs = std::size(marks::kStandardMarks);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    const int n_classes = static_cast<int>(rng.range(2, 3));
    marks::MarkSet m;
    if (rng.chance(0.5)) {  // start from a mesh, so the NoC marks matter
      m.mark_hardware("C1");
      auto tile = [](std::int64_t v) { return xtuml::ScalarValue(v); };
      m.set_class_mark("C1", marks::kTileX, tile(1));
      m.set_class_mark("C1", marks::kTileY, tile(0));

    }
    const int n_keys = static_cast<int>(rng.range(1, 8));
    for (int k = 0; k < n_keys; ++k) {
      const marks::MarkSpec& spec = marks::kStandardMarks[rng.below(n_specs)];
      const xtuml::ScalarValue v = fuzz_value(spec, rng);
      if (spec.scope == marks::Scope::kDomain) {
        m.set_domain_mark(spec.key, v);
      } else {
        m.set_class_mark("C" + std::to_string(rng.below(n_classes)), spec.key,
                         v);
      }
    }
    DiagnosticSink sink;
    auto project = core::Project::from_domain(chain_domain(n_classes), m, sink);
    if (project == nullptr) continue;
    ++accepted;
    try {
      // The fault marks arm a plan, as when the file is also --faults.
      fault::Plan plan(fault::FaultSpec::from_marks(project->marks()));
      cosim::CoSimConfig cfg;
      cfg.fault = &plan;
      auto cs = project->make_cosim(cfg);
      runtime::InstanceHandle next;
      for (int i = n_classes - 1; i >= 0; --i) {
        const std::string cls = "C" + std::to_string(i);
        next = i + 1 < n_classes ? cs->create_with(cls, {{"next", Value(next)}})
                                 : cs->create(cls);
      }
      cs->inject(next, "msg", {Value(std::int64_t{1})});
      cs->run_cycles(20);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "accepted marks failed to run: " << e.what() << "\n"
                    << m.to_text();
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarksFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

/// A two-class model whose runs always quiesce: A.go(k) adds k and sends
/// hit to its peer B, which only counts.
constexpr const char* kStimulusModel = R"(domain Fz
class A key AAA
  attr n : int = 0
  attr peer : ref B
  event go(k : int)
  state S {
    self.n = self.n + param.k;
    generate hit() to self.peer;
  }
  transition S on go -> S
  initial S
end
class B key BBB
  attr hits : int = 0
  event hit()
  state T {
    self.hits = self.hits + 1;
  }
  transition T on hit -> T
  initial T
end
)";

TEST_P(ParserFuzz, SimParserNeverCrashes) {
  DiagnosticSink sink;
  auto project = core::Project::from_xtm(
      kStimulusModel, "B.isHardware = true\ndomain.busLatency = 2\n", sink);
  ASSERT_NE(project, nullptr) << sink.to_string();
  Rng rng(GetParam() * 61 + 5);
  // Well-formed lines, so scripts get past their first command; each line
  // is kept, or has one word swapped for a hostile token, or is dropped.
  static const char* kLines[] = {
      "create b B",        "create a A peer=@b", "create a A",
      "inject a go k=3",   "inject a go k=1 delay=2", "inject b hit",
      "run",               "run 5",              "expect b.hits == 1",
      "expect a.n == 3",   "expect_state a S",   "print summary",
      "print trace",       "# comment"};
  static const char* kTokens[] = {
      "a",       "b",        "A",        "B",       "Nope",    "go",
      "hit",     "k=-1",     "k=\"s\"",  "k=1.5",   "k=@b",    "delay=-1",
      "delay=x", "peer=@a",  "n=true",   "a.",      "==",      "true",
      "\"s",     "@zz",      "T",        "1e99",    "-1",      "0",
      "99999999999999999999", "=", ".",  "bogus",   "expect",  ""};
  int deep = 0;
  for (int round = 0; round < 50; ++round) {
    // Most scripts start with a population for the later lines to use.
    std::string script =
        rng.chance(0.8) ? "create b B\ncreate a A peer=@b\n" : "";
    const std::size_t lines = rng.below(12) + 1;
    for (std::size_t i = 0; i < lines; ++i) {
      std::istringstream line(
          kLines[rng.below(sizeof(kLines) / sizeof(kLines[0]))]);
      std::vector<std::string> words;
      for (std::string w; line >> w;) words.push_back(w);
      if (rng.chance(0.15)) {
        words[rng.below(words.size())] =
            kTokens[rng.below(sizeof(kTokens) / sizeof(kTokens[0]))];
      }
      if (rng.chance(0.1)) continue;
      for (const std::string& w : words) script += w + ' ';
      script += '\n';
    }
    // The same script against the model and against the co-simulation:
    // either may stop at a bad line, neither may crash.
    std::ostringstream out;
    const core::StimulusResult model =
        core::run_stimulus(*project, script, out);
    core::run_stimulus_cosim(*project, script, out);
    if (model.commands >= 4) ++deep;
  }
  EXPECT_GT(deep, 0);  // some scripts ran past their first lines
}

TEST_P(ParserFuzz, TraceReplayParserNeverCrashes) {
  Rng rng(GetParam() * 43 + 11);
  static const char* kFields[] = {
      "0", "1", "2", "3", "17", "-1", "-5", "4294967296",
      "18446744073709551615", "18446744073709551616", "1.5", "x", "#",
      "# note", "0x10", "+3", "", "\t"};
  for (int round = 0; round < 50; ++round) {
    std::string text;
    const std::size_t lines = rng.below(8) + 1;
    for (std::size_t i = 0; i < lines; ++i) {
      const std::size_t fields = rng.below(7);
      for (std::size_t f = 0; f < fields; ++f) {
        if (f > 0) text += ' ';
        text += kFields[rng.below(sizeof(kFields) / sizeof(kFields[0]))];
      }
      text += '\n';
    }
    std::string error;
    const std::optional<noc::TraceReplay> parsed =
        noc::TraceReplay::parse(text, &error);
    if (!parsed) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    // Anything accepted round-trips exactly through its text form.
    const std::string printed = parsed->to_text();
    const std::optional<noc::TraceReplay> again =
        noc::TraceReplay::parse(printed, &error);
    ASSERT_TRUE(again.has_value()) << error << "\n" << printed;
    EXPECT_EQ(again->to_text(), printed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace xtsoc
