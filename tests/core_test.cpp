#include <gtest/gtest.h>

#include <sstream>

#include "test_models.hpp"
#include "xtsoc/core/project.hpp"
#include "xtsoc/core/stimulus.hpp"
#include "xtsoc/text/xtm.hpp"

namespace xtsoc::core {
namespace {

using runtime::Value;
using testing::make_pipeline_domain;

constexpr const char* kPipeMarks = R"(
# initial partition: accelerate the consumer
Consumer.isHardware = true
Consumer.maxInstances = 16
domain.busLatency = 2
)";

std::unique_ptr<Project> make_project() {
  DiagnosticSink sink;
  auto p = Project::from_domain(make_pipeline_domain(),
                                marks::MarkSet::from_text(kPipeMarks, sink),
                                sink);
  EXPECT_NE(p, nullptr) << sink.to_string();
  return p;
}

verify::TestCase kick_test(int kicks) {
  verify::TestCase t;
  t.name = "kicks";
  t.population = {
      {"cns", "Consumer", {}},
      {"prd", "Producer", {{"sink", verify::RefByName{"cns"}}}},
  };
  for (int i = 0; i < kicks; ++i) {
    t.stimuli.push_back({"prd", "kick", {}, static_cast<std::uint64_t>(i) * 100});
  }
  t.expect_attrs = {
      {"cns", "total",
       Value(static_cast<std::int64_t>(kicks * (kicks + 1) / 2))}};
  return t;
}

TEST(Project, FromDomainEndToEnd) {
  auto p = make_project();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->domain().name(), "Pipe");
  EXPECT_TRUE(p->marks().is_hardware("Consumer"));
  EXPECT_EQ(p->system().bus_latency(), 2);
  EXPECT_EQ(p->system().interface().message_count(), 2u);
}

TEST(Project, FromXtmEndToEnd) {
  // Express the same pipeline as .xtm text (model authored as data).
  std::string xtm = text::write_xtm(*make_pipeline_domain());
  DiagnosticSink sink;
  auto p = Project::from_xtm(xtm, kPipeMarks, sink);
  ASSERT_NE(p, nullptr) << sink.to_string();
  EXPECT_EQ(p->domain().class_count(), 2u);
  verify::RunReport r = p->run_model_test(kick_test(3));
  EXPECT_TRUE(r.passed) << r.to_string();
}

TEST(Project, BadXtmRejected) {
  DiagnosticSink sink;
  EXPECT_EQ(Project::from_xtm("not a model", "", sink), nullptr);
}

TEST(Project, BadMarksRejected) {
  std::string xtm = text::write_xtm(*make_pipeline_domain());
  DiagnosticSink sink;
  EXPECT_EQ(Project::from_xtm(xtm, "Nope.isHardware = true", sink), nullptr);
}

TEST(Project, ModelTestAndConformance) {
  auto p = make_project();
  verify::RunReport abstract = p->run_model_test(kick_test(4));
  EXPECT_TRUE(abstract.passed) << abstract.to_string();

  verify::ConformanceReport cr = p->run_conformance(kick_test(4));
  EXPECT_TRUE(cr.passed()) << cr.equivalence.to_string();
}

TEST(Project, RepartitionIsAMarkDiff) {
  auto p = make_project();
  ASSERT_TRUE(p->system().partition().is_hardware(
      p->domain().find_class_id("Consumer")));

  // Move the accelerator from Consumer to Producer: two mark lines change,
  // zero model edits.
  DiagnosticSink sink;
  marks::MarkSet after = marks::MarkSet::from_text(
      "Producer.isHardware = true\ndomain.busLatency = 2\n", sink);
  auto diff = p->repartition(std::move(after), sink);
  ASSERT_TRUE(diff.has_value()) << sink.to_string();
  EXPECT_GE(diff->size(), 2u);

  EXPECT_TRUE(p->system().partition().is_hardware(
      p->domain().find_class_id("Producer")));
  EXPECT_FALSE(p->system().partition().is_hardware(
      p->domain().find_class_id("Consumer")));

  // The repartitioned system still passes the same formal test case.
  verify::ConformanceReport cr = p->run_conformance(kick_test(3));
  EXPECT_TRUE(cr.passed()) << cr.equivalence.to_string();
}

TEST(Project, InvalidRepartitionKeepsOldMapping) {
  auto p = make_project();
  DiagnosticSink sink;
  marks::MarkSet bad;
  bad.mark_hardware("NoSuchClass");
  EXPECT_FALSE(p->repartition(std::move(bad), sink).has_value());
  // Old mapping still in effect.
  EXPECT_TRUE(p->system().partition().is_hardware(
      p->domain().find_class_id("Consumer")));
}

TEST(Project, GenerateAllProducesBothHalves) {
  auto p = make_project();
  DiagnosticSink sink;
  codegen::Output out = p->generate_all(sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  EXPECT_NE(out.find("sw/pipe_model.c"), nullptr);
  EXPECT_NE(out.find("hw/consumer.vhd"), nullptr);
  EXPECT_NE(out.find("hw/pipe_pkg.vhd"), nullptr);
  EXPECT_GT(out.total_lines(), 200u);
}

TEST(Project, SummaryMentionsPartitionAndInterface) {
  auto p = make_project();
  std::string s = p->summary();
  EXPECT_NE(s.find("2 classes"), std::string::npos);
  EXPECT_NE(s.find("hardware: Consumer"), std::string::npos);
  EXPECT_NE(s.find("2 boundary messages"), std::string::npos);
}

// --- stimulus scripts ---------------------------------------------------------

constexpr const char* kPipeScript = R"(
# drive the pipeline from text
create cns Consumer
create prd Producer sink=@cns
inject prd kick
run
inject prd kick delay=100
run
expect prd.sent == 2
expect prd.acks == 2
expect cns.total == 3
expect_state prd Waiting
print summary
)";

TEST(Stimulus, RunsAgainstAbstractModel) {
  auto p = make_project();
  std::ostringstream out;
  StimulusResult r = run_stimulus(*p, kPipeScript, out);
  EXPECT_TRUE(r.ok) << out.str();
  EXPECT_EQ(r.failed_expectations, 0);
  EXPECT_NE(out.str().find("expect ok: cns.total == 3"), std::string::npos);
  EXPECT_NE(out.str().find("dispatches"), std::string::npos);
}

TEST(Stimulus, SameScriptRunsAgainstCosim) {
  auto p = make_project();
  std::ostringstream out;
  StimulusResult r = run_stimulus_cosim(*p, kPipeScript, out);
  EXPECT_TRUE(r.ok) << out.str();
  EXPECT_NE(out.str().find("cycles"), std::string::npos);
}

TEST(Stimulus, FailedExpectationReported) {
  auto p = make_project();
  std::ostringstream out;
  StimulusResult r = run_stimulus(*p,
                                  "create cns Consumer\n"
                                  "expect cns.total == 42\n",
                                  out);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failed_expectations, 1);
  EXPECT_NE(out.str().find("EXPECT FAILED"), std::string::npos);
}

TEST(Stimulus, ScriptErrorsStopExecution) {
  auto p = make_project();
  std::ostringstream out;
  for (const char* bad :
       {"create x NoSuchClass\n", "create a Consumer\ncreate a Consumer\n",
        "inject ghost kick\n", "create c Consumer\ninject c nosuch\n",
        "create c Consumer\nexpect c.nope == 1\n",
        "create c Consumer\nexpect_state c NoState\n",
        "bogus command\n", "create c Consumer zz=1\n",
        "create p Producer sink=@missing\n", "print nonsense\n",
        "create p Producer\ninject p kick delay=-5\n",
        "create p Producer\ninject p kick delay=1.5\n"}) {
    std::ostringstream o;
    StimulusResult r = run_stimulus(*p, bad, o);
    EXPECT_FALSE(r.ok) << bad;
  }
}

TEST(Stimulus, IllTypedInjectIsADiagnostic) {
  // units is an int parameter: 1.5 is rejected where it enters, naming it.
  auto p = make_project();
  std::ostringstream out;
  StimulusResult r = run_stimulus(*p,
                                  "create cns Consumer\n"
                                  "create prd Producer sink=@cns\n"
                                  "inject cns work units=1.5 scale=1.0 "
                                  "who=@prd\nrun\n",
                                  out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(out.str().find("parameter 'units' of event 'work' is int, "
                           "cannot take real 1.5"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("stimulus:3: error"), std::string::npos);

  // An int for the real parameter `scale` widens; the script runs on.
  std::ostringstream ok;
  r = run_stimulus(*p,
                   "create cns Consumer\ncreate prd Producer sink=@cns\n"
                   "inject cns work units=2 scale=1 who=@prd\nrun\n"
                   "expect cns.total == 2\n",
                   ok);
  EXPECT_TRUE(r.ok) << ok.str();

  // The same rule holds for attributes set by `create`.
  std::ostringstream attr;
  r = run_stimulus(*p, "create cns Consumer total=2.5\n", attr);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(attr.str().find("attribute 'Consumer.total' is int"),
            std::string::npos)
      << attr.str();
}

TEST(Stimulus, PrintTraceIncludesEvents) {
  auto p = make_project();
  std::ostringstream out;
  run_stimulus(*p,
               "create cns Consumer\ncreate prd Producer sink=@cns\n"
               "inject prd kick\nrun\nprint trace\n",
               out);
  EXPECT_NE(out.str().find("dispatch"), std::string::npos);
}

TEST(Stimulus, RunBoundStopsSelfTickers) {
  // A self-perpetuating model must stop at the run bound.
  DiagnosticSink sink;
  xtuml::DomainBuilder b("Tick");
  b.cls("A")
      .attr("n", xtuml::DataType::kInt)
      .event("t")
      .state("S", "self.n = self.n + 1;\ngenerate t() to self delay 1;")
      .transition("S", "t", "S");
  auto p = Project::from_domain(b.take(), marks::MarkSet{}, sink);
  ASSERT_NE(p, nullptr);
  std::ostringstream out;
  StimulusResult r = run_stimulus(*p,
                                  "create a A\ninject a t\nrun 5\n"
                                  "expect a.n == 5\n",
                                  out);
  EXPECT_TRUE(r.ok) << out.str();
}

TEST(Project, MakeExecutorsWork) {
  auto p = make_project();
  auto exec = p->make_abstract_executor();
  auto h = exec->create("Consumer");
  EXPECT_TRUE(exec->database().is_alive(h));

  auto cs = p->make_cosim();
  auto ch = cs->create("Consumer");
  EXPECT_TRUE(cs->hw_executor().database().is_alive(ch));
}

}  // namespace
}  // namespace xtsoc::core
