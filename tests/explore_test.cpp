// Tests for the VCD writer and the bounded state-space explorer.

#include <gtest/gtest.h>

#include "xtsoc/hwsim/vcd.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/verify/explore.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc {
namespace {

using runtime::Value;
using xtuml::DataType;
using xtuml::DomainBuilder;

// --- VCD --------------------------------------------------------------------------

TEST(Vcd, HeaderListsWatchedWires) {
  hwsim::Simulator sim;
  sim.wire(1, 0, "clk");
  sim.wire(8, 0, "data bus");  // space becomes underscore
  sim.wire(4);                 // anonymous
  hwsim::VcdWriter vcd(sim);
  std::string out = vcd.render();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(out.find("data_bus"), std::string::npos);
  EXPECT_NE(out.find("wire2"), std::string::npos);
  EXPECT_EQ(vcd.watched_count(), 3u);
}

TEST(Vcd, FirstSampleDumpsEverything) {
  hwsim::Simulator sim;
  HwSignalId a = sim.wire(1, 1, "a");
  sim.wire(8, 5, "b");
  hwsim::VcdWriter vcd(sim);
  vcd.sample();
  std::string out = vcd.render();
  EXPECT_NE(out.find("$dumpvars"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("1!"), std::string::npos);     // a = 1
  EXPECT_NE(out.find("b101 \""), std::string::npos); // b = 5
  (void)a;
}

TEST(Vcd, OnlyChangesAfterFirstSample) {
  hwsim::Simulator sim;
  HwSignalId clk = sim.clock();
  HwSignalId counter = sim.wire(8, 0, "counter");
  hwsim::VcdWriter vcd(sim, {clk, counter});
  vcd.sample();
  std::size_t after_first = vcd.change_count();
  const std::vector<hwsim::WireWrite> writes{{counter, 1}};
  const std::vector<hwsim::WireWrite>* batch = &writes;
  sim.edge({&batch, 1});
  vcd.sample();
  EXPECT_EQ(vcd.change_count(), after_first + 2);  // clk and counter
  std::string out = vcd.render();
  // The counter (id ") went to 1 at the first edge's time.
  EXPECT_NE(out.find("#1\n1!\nb1 \""), std::string::npos) << out;
  // No repeated dump of unchanged values: "$dumpvars" appears exactly once.
  EXPECT_EQ(out.find("$dumpvars"), out.rfind("$dumpvars"));
}

TEST(Vcd, QuietSampleEmitsNothing) {
  hwsim::Simulator sim;
  sim.wire(1, 0, "a");
  hwsim::VcdWriter vcd(sim);
  vcd.sample();
  std::string before = vcd.render();
  vcd.sample();  // nothing changed, no time advanced
  EXPECT_EQ(vcd.render(), before);
}

// --- explorer ----------------------------------------------------------------------

/// Two independent toggles: the schedule space is all interleavings of two
/// 2-step chains; reachable states are the product (9 states incl. root
/// variants), and exploration must be complete.
TEST(Explore, CoversAllInterleavings) {
  DomainBuilder b("Toggles");
  b.cls("T")
      .attr("n", DataType::kInt)
      .event("flip")
      .state("Off", "self.n = self.n + 1;")
      .state("On", "self.n = self.n + 1;")
      .transition("Off", "flip", "On")
      .transition("On", "flip", "Off")
      .initial("Off");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();

  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto t1 = exec.create("T");
    auto t2 = exec.create("T");
    exec.inject(t1, "flip");
    exec.inject(t1, "flip");
    exec.inject(t2, "flip");
    exec.inject(t2, "flip");
  });
  EXPECT_TRUE(result.complete) << result.to_string();
  EXPECT_TRUE(result.errors.empty()) << result.to_string();
  // 3x3 grid of (t1 progress, t2 progress).
  EXPECT_EQ(result.states_visited, 9u);
  EXPECT_TRUE(result.dead_states.empty());
}

TEST(Explore, FindsCantHappenOnSomeScheduleOnly) {
  // A receives "a" then "b" from two different channels. If "b" lands
  // first, A is still in S0 where "b" can't happen. A single default-order
  // run never sees it; the explorer must.
  DomainBuilder b("Race");
  b.cls("A")
      .event("a")
      .event("b")
      .state("S0")
      .state("S1")
      .state("S2")
      .transition("S0", "a", "S1")
      .transition("S1", "b", "S2")
      .on_unexpected(xtuml::EventFallback::kCantHappen);
  b.cls("Driver")
      .ref_attr("target", "A")
      .event("go")
      .state("D0")
      .state("D1", "generate b() to self.target;")
      .transition("D0", "go", "D1");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();

  // Default executor order: 'a' (injected first) dispatches first — fine.
  {
    runtime::Executor exec(*cd);
    auto a = exec.create("A");
    auto d = exec.create_with("Driver", {{"target", Value(a)}});
    exec.inject(a, "a");
    exec.inject(d, "go");  // driver then sends 'b' — after 'a'
    EXPECT_NO_THROW(exec.run_all());
  }

  // The explorer finds the schedule where the driver outruns 'a'.
  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto a = exec.create("A");
    auto d = exec.create_with("Driver", {{"target", Value(a)}});
    exec.inject(a, "a");
    exec.inject(d, "go");
  });
  ASSERT_FALSE(result.errors.empty()) << result.to_string();
  EXPECT_NE(result.errors[0].find("can't-happen"), std::string::npos);
  EXPECT_NE(result.errors[0].find("schedule"), std::string::npos);
}

TEST(Explore, ReportsDeadStates) {
  DomainBuilder b("Dead");
  b.cls("A")
      .event("go")
      .state("S0")
      .state("S1")
      .state("Unreachable")  // no transition leads here with this stimulus
      .event("never")
      .transition("S0", "go", "S1")
      .transition("S1", "never", "Unreachable");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();

  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto a = exec.create("A");
    exec.inject(a, "go");
  });
  ASSERT_EQ(result.dead_states.size(), 1u) << result.to_string();
  EXPECT_EQ(result.dead_states[0].second, "Unreachable");
}

TEST(Explore, RespectsPairwiseOrderAndSelfPriority) {
  // B sends itself "s" while an external "e" is pending: only the
  // self-directed event is a candidate (xtUML priority), so exactly one
  // schedule exists and it matches the executor's default order.
  DomainBuilder b("SelfP");
  b.cls("B")
      .attr("log_order", DataType::kString)
      .event("go")
      .event("s")
      .event("e")
      .state("S0")
      .state("S1", "generate s() to self;")
      .state("S2", "self.log_order = self.log_order + \"s\";")
      .state("S3", "self.log_order = self.log_order + \"e\";")
      .transition("S0", "go", "S1")
      .transition("S1", "s", "S2")
      .transition("S1", "e", "S3")
      .transition("S2", "e", "S2")
      .transition("S3", "s", "S3");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();

  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto inst = exec.create("B");
    exec.inject(inst, "go");
    exec.inject(inst, "e");
  });
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty()) << result.to_string();
  // S3 is unreachable BECAUSE of the self-priority rule.
  ASSERT_EQ(result.dead_states.size(), 1u) << result.to_string();
  EXPECT_EQ(result.dead_states[0].second, "S3");
}

TEST(Explore, DelayRejected) {
  DomainBuilder b("D");
  b.cls("A")
      .event("go")
      .state("S0")
      .state("S1", "generate go() to self delay 5;")
      .transition("S0", "go", "S1")
      .transition("S1", "go", "S1");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();
  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto a = exec.create("A");
    exec.inject(a, "go");
  });
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("delay"), std::string::npos);
}

TEST(Explore, StateBoundTruncates) {
  // A counter that never converges: ping-pong with ever-growing attr.
  DomainBuilder b("Grow");
  b.cls("A")
      .attr("n", DataType::kInt)
      .event("t")
      .state("S", "self.n = self.n + 1;\ngenerate t() to self;")
      .transition("S", "t", "S");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr) << sink.to_string();
  verify::ExploreConfig cfg;
  cfg.max_states = 50;
  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto a = exec.create("A");
    exec.inject(a, "t");
  }, cfg);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.states_visited, 50u);
}

TEST(Explore, ResultToStringMentionsEverything) {
  DomainBuilder b("D");
  b.cls("A").event("go").state("S0").state("S1").transition("S0", "go", "S1");
  DiagnosticSink sink;
  auto cd = oal::compile_domain(b.domain(), sink);
  ASSERT_NE(cd, nullptr);
  auto result = verify::explore(*cd, [](runtime::Executor& exec) {
    auto a = exec.create("A");
    exec.inject(a, "go");
  });
  std::string s = result.to_string();
  EXPECT_NE(s.find("states"), std::string::npos);
  EXPECT_NE(s.find("transitions"), std::string::npos);
}

}  // namespace
}  // namespace xtsoc
