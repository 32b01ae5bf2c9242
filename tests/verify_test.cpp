#include <gtest/gtest.h>

#include "test_models.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/verify/equivalence.hpp"
#include "xtsoc/verify/testcase.hpp"

namespace xtsoc::verify {
namespace {

using runtime::Value;
using testing::MappedFixture;
using testing::make_pipeline_domain;
using xtuml::ScalarValue;

marks::MarkSet hw_consumer_marks() {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.set_domain_mark(marks::kBusLatency, ScalarValue(std::int64_t{3}));
  return m;
}

TestCase pipeline_test(int kicks) {
  TestCase t;
  t.name = "pipeline";
  t.population = {
      {"cns", "Consumer", {}},
      {"prd", "Producer", {{"sink", RefByName{"cns"}}}},
  };
  // Pace the kicks so each round trip finishes before the next kick
  // (see DESIGN.md on multi-sender races being model bugs, not tool bugs).
  for (int i = 0; i < kicks; ++i) {
    t.stimuli.push_back({"prd", "kick", {}, static_cast<std::uint64_t>(i) * 100});
  }
  int total = kicks * (kicks + 1) / 2;
  t.expect_attrs = {
      {"prd", "sent", Value(static_cast<std::int64_t>(kicks))},
      {"prd", "acks", Value(static_cast<std::int64_t>(kicks))},
      {"cns", "total", Value(static_cast<std::int64_t>(total))},
  };
  t.expect_states = {{"prd", "Waiting"}, {"cns", "Ready"}};
  return t;
}

// --- AbstractRunner --------------------------------------------------------------

TEST(AbstractRunner, PassingCase) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  RunReport r = runner.run(pipeline_test(3));
  EXPECT_TRUE(r.passed) << r.to_string();
  EXPECT_EQ(r.dispatches, 9u);  // 3 x (kick, work, done)
}

TEST(AbstractRunner, WrongAttrExpectationFails) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  TestCase t = pipeline_test(1);
  t.expect_attrs[2].value = Value(std::int64_t{99});
  RunReport r = runner.run(t);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.to_string().find("cns.total"), std::string::npos);
}

TEST(AbstractRunner, WrongStateExpectationFails) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  TestCase t = pipeline_test(1);
  t.expect_states = {{"prd", "Idle"}};
  EXPECT_FALSE(runner.run(t).passed);
}

TEST(AbstractRunner, UnknownNamesReported) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  TestCase t;
  t.population = {{"a", "Consumer", {{"nope", Value(std::int64_t{1})}}}};
  t.stimuli = {{"ghost", "kick", {}, 0}};
  t.expect_attrs = {{"ghost", "x", Value(std::int64_t{0})}};
  t.expect_states = {{"a", "NoSuchState"}};
  RunReport r = runner.run(t);
  EXPECT_FALSE(r.passed);
  EXPECT_GE(r.failures.size(), 4u);
}

TEST(AbstractRunner, DuplicatePopulationNameReported) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  TestCase t;
  t.population = {{"a", "Consumer", {}}, {"a", "Consumer", {}}};
  EXPECT_FALSE(runner.run(t).passed);
}

TEST(AbstractRunner, ForwardReferenceInPopulation) {
  // prd references cns which is declared AFTER it: two-pass creation.
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  TestCase t;
  t.population = {
      {"prd", "Producer", {{"sink", RefByName{"cns"}}}},
      {"cns", "Consumer", {}},
  };
  t.stimuli = {{"prd", "kick", {}, 0}};
  t.expect_attrs = {{"cns", "total", Value(std::int64_t{1})}};
  EXPECT_TRUE(runner.run(t).passed);
}

TEST(AbstractRunner, ExpectedLogsChecked) {
  xtuml::DomainBuilder b("LogD");
  b.cls("A")
      .event("go")
      .state("S0")
      .state("S1", "log \"hello\";")
      .transition("S0", "go", "S1");
  DiagnosticSink sink;
  auto compiled = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(compiled, nullptr);
  AbstractRunner runner(*compiled);
  TestCase t;
  t.population = {{"a", "A", {}}};
  t.stimuli = {{"a", "go", {}, 0}};
  t.expect_logs = {"hello"};
  EXPECT_TRUE(runner.run(t).passed);
  t.expect_logs = {"goodbye"};
  EXPECT_FALSE(runner.run(t).passed);
}

// --- CosimRunner & conformance -----------------------------------------------------

TEST(CosimRunner, SameTestPassesPartitioned) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  CosimRunner runner(*fx.system);
  RunReport r = runner.run(pipeline_test(3));
  EXPECT_TRUE(r.passed) << r.to_string();
}

TEST(Conformance, AbstractAndPartitionedAgree) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  ConformanceReport cr =
      run_conformance(*fx.compiled, *fx.system, pipeline_test(4));
  EXPECT_TRUE(cr.abstract_run.passed) << cr.abstract_run.to_string();
  EXPECT_TRUE(cr.cosim_run.passed) << cr.cosim_run.to_string();
  EXPECT_TRUE(cr.equivalence.equivalent) << cr.equivalence.to_string();
  EXPECT_GE(cr.equivalence.instances_checked, 2u);
}

// Property sweep: conformance holds for every partition of the pipeline.
class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, EveryPartitionPreservesBehaviour) {
  int mask = GetParam();  // bit 0: Consumer hw, bit 1: Producer hw
  marks::MarkSet m;
  if (mask & 1) m.mark_hardware("Consumer");
  if (mask & 2) m.mark_hardware("Producer");
  MappedFixture fx(make_pipeline_domain(), std::move(m));
  ConformanceReport cr =
      run_conformance(*fx.compiled, *fx.system, pipeline_test(3));
  EXPECT_TRUE(cr.passed())
      << cr.abstract_run.to_string() << '\n'
      << cr.cosim_run.to_string() << '\n'
      << cr.equivalence.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllPartitions, PartitionSweep,
                         ::testing::Values(0, 1, 2, 3));

// --- equivalence internals -----------------------------------------------------------

TEST(Equivalence, SignatureIgnoresTiming) {
  runtime::Trace a, b;
  runtime::InstanceHandle h{ClassId(0), 0, 0};
  runtime::TraceEvent e;
  e.kind = runtime::TraceKind::kDispatch;
  e.subject = h;
  e.event = EventId(1);
  e.tick = 5;
  a.record(e);
  e.tick = 500;  // same semantic event, different time
  b.record(e);
  EXPECT_EQ(projection_signature(a, h), projection_signature(b, h));
}

TEST(Equivalence, DetectsDivergence) {
  runtime::Trace a, b;
  runtime::InstanceHandle h{ClassId(0), 0, 0};
  runtime::TraceEvent e;
  e.kind = runtime::TraceKind::kDispatch;
  e.subject = h;
  e.event = EventId(1);
  a.record(e);
  e.event = EventId(2);
  b.record(e);
  auto report = compare_executions(a, {&b});
  EXPECT_FALSE(report.equivalent);
  EXPECT_EQ(report.mismatches.size(), 1u);
}

TEST(Equivalence, SendsExcludedFromSignature) {
  runtime::Trace a;
  runtime::InstanceHandle h{ClassId(0), 0, 0};
  runtime::TraceEvent e;
  e.kind = runtime::TraceKind::kSend;
  e.subject = h;
  e.event = EventId(1);
  a.record(e);
  EXPECT_TRUE(projection_signature(a, h).empty());
}

TEST(FinalStates, AgreesAfterConformingRun) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  TestCase t = pipeline_test(3);
  AbstractRunner abs(*fx.compiled);
  abs.run(t);
  CosimRunner part(*fx.system);
  part.run(t);
  auto finals = compare_final_states(
      abs.executor().database(), {&part.cosim().hw_executor().database(),
                                  &part.cosim().sw_executor().database()});
  EXPECT_TRUE(finals.equivalent) << finals.to_string();
  EXPECT_GE(finals.instances_checked, 2u);
}

TEST(FinalStates, DetectsAttrDivergence) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  TestCase t = pipeline_test(2);
  AbstractRunner a(*fx.compiled);
  a.run(t);
  AbstractRunner b(*fx.compiled);
  b.run(t);
  // Corrupt one attribute in run b.
  auto consumers =
      b.executor().database().all_of(fx.domain->find_class_id("Consumer"));
  ASSERT_FALSE(consumers.empty());
  b.executor().database().set_attr(consumers[0], AttributeId(0),
                                   Value(std::int64_t{999}));
  auto finals = compare_final_states(a.executor().database(),
                                     {&b.executor().database()});
  EXPECT_FALSE(finals.equivalent);
  EXPECT_FALSE(finals.mismatches.empty());
}

TEST(FinalStates, DetectsPopulationDivergence) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  TestCase t = pipeline_test(1);
  AbstractRunner a(*fx.compiled);
  a.run(t);
  AbstractRunner b(*fx.compiled);
  b.run(t);
  b.executor().create("Consumer");  // extra instance
  auto finals = compare_final_states(a.executor().database(),
                                     {&b.executor().database()});
  EXPECT_FALSE(finals.equivalent);
  EXPECT_NE(finals.to_string().find("populations differ"), std::string::npos);
}

TEST(FinalStates, DetectsStateDivergence) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner a(*fx.compiled);
  AbstractRunner b(*fx.compiled);
  TestCase setup;
  setup.population = {{"p", "Producer", {}}};
  a.run(setup);
  b.run(setup);
  auto producers =
      b.executor().database().all_of(fx.domain->find_class_id("Producer"));
  b.executor().database().set_state(producers[0], StateId(1));
  auto finals = compare_final_states(a.executor().database(),
                                     {&b.executor().database()});
  EXPECT_FALSE(finals.equivalent);
  EXPECT_NE(finals.to_string().find("final state differs"), std::string::npos);
}

TEST(Causality, SendBeforeDispatchOk) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  AbstractRunner runner(*fx.compiled);
  runner.run(pipeline_test(3));
  std::string err;
  EXPECT_TRUE(check_causality(runner.executor().trace(), &err)) << err;
}

TEST(Causality, DispatchWithoutSendDetected) {
  runtime::Trace t;
  runtime::InstanceHandle h{ClassId(0), 0, 0};
  runtime::TraceEvent e;
  e.kind = runtime::TraceKind::kDispatch;
  e.subject = h;
  e.event = EventId(0);
  t.record(e);
  std::string err;
  EXPECT_FALSE(check_causality(t, &err));
  EXPECT_FALSE(err.empty());
}

// --- perf: the report's activity sections and the repartition advisor ---------

TEST(Perf, MeasureCountsPartitionActivity) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  CosimRunner runner(*fx.system);
  runner.run(pipeline_test(5));
  const obs::Snapshot r = runner.cosim().report();
  EXPECT_GT(r.at("run").at("cycles").as_uint(), 0u);
  const obs::JsonValue& domains = r.at("domains");
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains.at(0).at("dispatches").as_uint(), 5u);   // work x5 in hw
  EXPECT_EQ(domains.at(1).at("dispatches").as_uint(), 10u);  // kick + done x5
  const obs::JsonValue& bus = r.at("interconnect");
  // 5 work + 5 done crossed the bus.
  EXPECT_EQ(bus.at("frames_to_hw").as_uint() + bus.at("frames_to_sw").as_uint(),
            10u);
  EXPECT_GT(bus.at("bytes_to_hw").as_uint() + bus.at("bytes_to_sw").as_uint(),
            0u);
  const obs::JsonValue& classes = r.at("classes");
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes.at(0).at("name").as_string(), "Consumer");
  EXPECT_EQ(classes.at(0).at("domain").as_string(), "hw0");
  EXPECT_EQ(classes.at(0).at("dispatches").as_uint(), 5u);
  EXPECT_EQ(classes.at(0).at("live").as_uint(), 1u);
  EXPECT_EQ(classes.at(1).at("name").as_string(), "Producer");
  EXPECT_EQ(classes.at(1).at("domain").as_string(), "sw");
  EXPECT_EQ(classes.at(1).at("dispatches").as_uint(), 10u);
}

TEST(Perf, AdvisorSuggestsBusiestSoftwareClass) {
  MappedFixture fx(make_pipeline_domain(), marks::MarkSet{});
  CosimRunner runner(*fx.system);
  runner.run(pipeline_test(5));
  cosim::RepartitionAdvice advice =
      cosim::suggest_repartition(runner.cosim().report());
  ASSERT_TRUE(advice.has_suggestion);
  EXPECT_EQ(advice.move_to, marks::Target::kHardware);
  // Producer handles kick+done (10), Consumer handles work (5).
  EXPECT_EQ(advice.class_name, "Producer");
  EXPECT_FALSE(advice.rationale.empty());
}

TEST(Perf, AdvisorSuggestsReclaimingIdleHardware) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  CosimRunner runner(*fx.system);
  TestCase t;  // no stimuli: nothing runs anywhere
  t.population = {{"cns", "Consumer", {}}};
  runner.run(t);
  cosim::RepartitionAdvice advice =
      cosim::suggest_repartition(runner.cosim().report());
  ASSERT_TRUE(advice.has_suggestion);
  EXPECT_EQ(advice.move_to, marks::Target::kSoftware);
  EXPECT_EQ(advice.class_name, "Consumer");
}

}  // namespace
}  // namespace xtsoc::verify
