#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "test_models.hpp"
#include "xtsoc/core/project.hpp"
#include "xtsoc/core/stimulus.hpp"
#include "xtsoc/fault/fault.hpp"
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

// --- mark audit ------------------------------------------------------------------
//
// Marks "select which mapping rule applies" (paper §1): a standard mark that
// changes neither the generated C, nor the generated VHDL, nor the cosim
// report selects nothing. Each standard key gets one non-default value on a
// probe platform where it can matter, and must change at least one of them.

constexpr const char* kProbeXtm = R"(domain Probe

class Cpu key CPU
  attr n : int = 0
  attr acc : int = 0
  attr w0 : ref Acc
  attr w1 : ref Acc
  attr w2 : ref Acc
  event tick()
  event back(v : int)
  state Run {
    self.n = self.n + 1;
    k = 0;
    while (k < 4)
      mem.write(k * 32768 + (self.n % 16) * 64, self.n + k);
      self.acc = self.acc + mem.read(k * 32768 + (self.n % 8) * 128);
      k = k + 1;
    end while;
    generate work(v: self.n, who: self) to self.w0;
    generate work(v: self.n + 1, who: self) to self.w1;
    generate work(v: self.n + 2, who: self) to self.w2;
    generate tick() to self delay 12;
  }
  state Sum {
    self.acc = self.acc + param.v;
  }
  transition Run on tick -> Run
  transition Run on back -> Sum
  transition Sum on back -> Sum
  transition Sum on tick -> Run
  initial Run
end

class Acc key ACC
  attr sum : int = 0
  event work(v : int, who : ref Cpu)
  state Idle {
  }
  state Busy {
    self.sum = self.sum + param.v;
    generate back(v: self.sum) to param.who;
  }
  transition Idle on work -> Busy
  transition Busy on work -> Busy
  initial Idle
end
)";

constexpr const char* kProbeScript =
    "create a0 Acc\ncreate a1 Acc\ncreate a2 Acc\n"
    "create c Cpu w0=@a0 w1=@a1 w2=@a2\n"
    "inject c tick\nrun 600\n";

/// Generated C, generated VHDL and the cosim report of the probe run, with
/// the fault plan the marks describe attached.
std::string probe_fingerprint(const marks::MarkSet& marks,
                              const std::string& what) {
  DiagnosticSink sink;
  auto p = Project::from_xtm(kProbeXtm, marks.to_text(), sink);
  if (p == nullptr) {
    ADD_FAILURE() << what << ": probe does not map\n" << sink.to_string();
    return {};
  }
  std::string out;
  for (const codegen::GeneratedFile& f : p->generate_all(sink).files) {
    out += "== " + f.path + "\n" + f.content;
  }
  fault::Plan plan(fault::FaultSpec::from_marks(p->marks()));
  cosim::CoSimConfig cfg;
  cfg.fault = &plan;
  std::ostringstream log;
  StimulusResult r = run_stimulus_cosim(
      *p, kProbeScript, log, cfg, [&out](const cosim::CoSimulation& cs) {
        out += "== report\n" + cs.report().to_json(2);
      });
  EXPECT_TRUE(r.ok) << what << "\n" << log.str();
  EXPECT_FALSE(sink.has_errors()) << what << "\n" << sink.to_string();
  return out;
}

struct MarkProbe {
  const char* element;  ///< the probed class, or null for a domain mark
  const char* key;
  const char* base;     ///< the probe platform where the key can act
  xtuml::ScalarValue value;
};

TEST(MarkAudit, EveryStandardMarkSelectsARule) {
  const std::string mesh =
      "Acc.isHardware = true\nAcc.tileX = 1\nAcc.tileY = 1\n";
  const std::string mem = mesh + "domain.dram.tile = 1\n";
  const std::map<std::string, std::string> bases = {
      {"none", ""},
      {"bus", "Acc.isHardware = true\n"},
      {"mesh", mesh},
      {"mem", mem},
      {"cached", mem + "domain.cache.sets = 4\n"},
      {"faulty", mesh + "domain.faultRate.flitDrop = 0.05\n"},
  };
  using xtuml::ScalarValue;
  auto i = [](std::int64_t v) { return ScalarValue(v); };
  const MarkProbe probes[] = {
      {"Acc", marks::kIsHardware, "none", ScalarValue(true)},
      {"Acc", marks::kClockDomain, "bus", i(4)},
      {"Acc", marks::kMaxInstances, "bus", i(8)},
      {"Acc", marks::kIntWidth, "bus", i(8)},
      {"Acc", marks::kTileX, "mesh", i(0)},
      {"Acc", marks::kTileY, "mesh", i(0)},
      {nullptr, marks::kBusLatency, "bus", i(9)},
      {nullptr, marks::kMeshWidth, "mesh", i(3)},
      {nullptr, marks::kMeshHeight, "mesh", i(3)},
      {nullptr, marks::kSwTileX, "mesh", i(1)},
      {nullptr, marks::kSwTileY, "mesh", i(1)},
      {nullptr, marks::kLinkLatency, "mesh", i(3)},
      {nullptr, marks::kFlitBytes, "mesh", i(8)},
      {nullptr, marks::kFifoDepth, "mesh", i(1)},
      {nullptr, marks::kTopology, "mesh", ScalarValue(std::string("torus"))},
      {nullptr, marks::kRouting, "mesh", ScalarValue(std::string("yx"))},
      {nullptr, marks::kFaultSeed, "faulty", i(7)},
      {nullptr, marks::kFaultWindow, "faulty", i(50)},
      {nullptr, marks::kFaultWindowStart, "faulty", i(50)},
      {nullptr, marks::kFaultRateFlitDrop, "mesh", ScalarValue(0.05)},
      {nullptr, marks::kFaultRateFlitCorrupt, "mesh", ScalarValue(0.05)},
      {nullptr, marks::kFaultRateLinkDown, "mesh", ScalarValue(0.01)},
      {nullptr, marks::kFaultRateBusError, "bus", ScalarValue(0.1)},
      {nullptr, marks::kDramTile, "mesh", i(1)},
      // DRAM latency overlaps the data frame's flits on the fabric, so a
      // few cycles more hide under them; 60 does not.
      {nullptr, marks::kDramTRcd, "cached", i(60)},
      {nullptr, marks::kDramTCas, "cached", i(60)},
      {nullptr, marks::kDramTRp, "cached", i(60)},
      {nullptr, marks::kCacheSets, "mem", i(4)},
      {nullptr, marks::kCacheWays, "cached", i(4)},
      {nullptr, marks::kCacheLineBytes, "cached", i(32)},
      {nullptr, marks::kCacheHitLatency, "cached", i(3)},
  };

  // The probe list is the standard key list, so a new key cannot skip it.
  std::set<std::string> probed;
  for (const MarkProbe& m : probes) probed.insert(m.key);
  std::set<std::string> standard;
  for (const marks::MarkSpec& spec : marks::kStandardMarks) {
    standard.emplace(spec.key);
  }
  EXPECT_EQ(probed, standard);

  auto parse = [&](const std::string& base) {
    DiagnosticSink sink;
    marks::MarkSet m = marks::MarkSet::from_text(bases.at(base), sink);
    EXPECT_FALSE(sink.has_errors()) << base << "\n" << sink.to_string();
    return m;
  };
  std::map<std::string, std::string> base_prints;
  for (const auto& [name, text] : bases) {
    base_prints[name] = probe_fingerprint(parse(name), "base " + name);
  }
  for (const MarkProbe& m : probes) {
    marks::MarkSet probe = parse(m.base);
    if (m.element != nullptr) {
      probe.set_class_mark(m.element, m.key, m.value);
    } else {
      probe.set_domain_mark(m.key, m.value);
    }
    const std::string what = std::string(m.key) + " on " + m.base;
    EXPECT_TRUE(probe_fingerprint(probe, what) != base_prints.at(m.base))
        << what << " changes neither the C, the VHDL nor the report";
  }
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
