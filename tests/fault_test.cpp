// xtsoc::fault — deterministic fault injection, resilient transport, and
// the campaign runner.
//
// The contracts under test, in order:
//   * marks::validate rejects out-of-range fault marks (rates are
//     probabilities; seed/window are non-negative);
//   * fault::Plan draws are reproducible from one seed and site-independent
//     (traffic on one link never perturbs another link's stream);
//   * a zero-rate plan attached to a co-simulation leaves every observable
//     byte identical to a run with no plan at all, apart from the report's
//     own "faults" section (the disabled path);
//   * with faults armed, the run stays byte-identical across every
//     (threads x window) configuration — fault injection rides the same
//     determinism contract as the parallel kernel;
//   * CRC catches every corrupted flit (nothing tainted is ever delivered),
//     and an exhausted retry budget reports loss instead of hanging;
//   * the bus and the bridge degrade the same way: bounded retries, then a
//     counted drop;
//   * a campaign produces the identical snapshot at every thread count.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/bridge/bridge.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::fault {
namespace {

using cosim::CoSimConfig;
using cosim::CoSimulation;
using runtime::InstanceHandle;
using runtime::Value;
using testing::MappedFixture;
using testing::Observed;
using testing::Recorder;
using testing::boot_fanout;
using testing::expect_and_cut_section;
using testing::expect_identical;
using testing::fanout_mesh_marks;
using testing::make_fanout_domain;
using testing::make_pipeline_domain;
using xtuml::ScalarValue;

// --- marks validation ----------------------------------------------------------

marks::MarkSet domain_fault_marks(double drop, double corrupt, double down,
                                  double bus, std::int64_t seed = 1,
                                  std::int64_t window = 0) {
  marks::MarkSet m;
  m.set_domain_mark(marks::kFaultSeed, ScalarValue(seed));
  m.set_domain_mark(marks::kFaultWindow, ScalarValue(window));
  m.set_domain_mark(marks::kFaultRateFlitDrop, ScalarValue(drop));
  m.set_domain_mark(marks::kFaultRateFlitCorrupt, ScalarValue(corrupt));
  m.set_domain_mark(marks::kFaultRateLinkDown, ScalarValue(down));
  m.set_domain_mark(marks::kFaultRateBusError, ScalarValue(bus));
  return m;
}

TEST(FaultMarks, ValidateAcceptsInRangeKeys) {
  auto domain = make_pipeline_domain();
  DiagnosticSink sink;
  EXPECT_TRUE(domain_fault_marks(0.5, 0.0, 1.0, 0.25, 42, 100)
                  .validate(*domain, sink))
      << sink.to_string();
}

TEST(FaultMarks, ValidateRejectsOutOfRangeRates) {
  auto domain = make_pipeline_domain();
  {
    DiagnosticSink sink;
    EXPECT_FALSE(domain_fault_marks(1.5, 0, 0, 0).validate(*domain, sink));
    EXPECT_NE(sink.to_string().find("probability"), std::string::npos)
        << sink.to_string();
  }
  {
    DiagnosticSink sink;
    EXPECT_FALSE(domain_fault_marks(0, -0.1, 0, 0).validate(*domain, sink));
  }
  {
    DiagnosticSink sink;
    marks::MarkSet m;
    m.set_domain_mark(marks::kFaultRateBusError, ScalarValue("high"));
    EXPECT_FALSE(m.validate(*domain, sink));  // rates are numbers
  }
}

TEST(FaultMarks, ValidateRejectsNegativeSeedAndWindow) {
  auto domain = make_pipeline_domain();
  {
    DiagnosticSink sink;
    EXPECT_FALSE(domain_fault_marks(0, 0, 0, 0, -1).validate(*domain, sink));
  }
  {
    DiagnosticSink sink;
    EXPECT_FALSE(domain_fault_marks(0, 0, 0, 0, 1, -5)
                     .validate(*domain, sink));
  }
}

TEST(FaultMarks, FromMarksReadsKeysAndDefaults) {
  FaultSpec def = FaultSpec::from_marks(marks::MarkSet{});
  EXPECT_EQ(def.seed, 1u);
  EXPECT_EQ(def.window, 0u);
  EXPECT_FALSE(def.any());

  FaultSpec s =
      FaultSpec::from_marks(domain_fault_marks(0.25, 0.5, 0.125, 1.0, 9, 64));
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.window, 64u);
  EXPECT_DOUBLE_EQ(s.flit_drop, 0.25);
  EXPECT_DOUBLE_EQ(s.flit_corrupt, 0.5);
  EXPECT_DOUBLE_EQ(s.link_down, 0.125);
  EXPECT_DOUBLE_EQ(s.bus_error, 1.0);
  EXPECT_TRUE(s.any());
}

// --- the plan ------------------------------------------------------------------

TEST(FaultPlan, SameSeedSameDraws) {
  FaultSpec s;
  s.seed = 123;
  s.flit_drop = 0.5;
  Plan a(s), b(s);
  for (std::uint64_t c = 1; c <= 200; ++c) {
    EXPECT_EQ(a.flit_drop(3, c), b.flit_drop(3, c)) << "cycle " << c;
  }
}

TEST(FaultPlan, SitesAreIndependentStreams) {
  FaultSpec s;
  s.seed = 7;
  s.flit_drop = 0.5;
  // Plan `a` draws on sites 0 and 1 interleaved; plan `b` only on site 1.
  // Site 1's sequence must be unaffected by site 0's traffic.
  Plan a(s), b(s);
  std::vector<bool> seq_a, seq_b;
  for (std::uint64_t c = 1; c <= 100; ++c) {
    a.flit_drop(0, c);
    seq_a.push_back(a.flit_drop(1, c));
    seq_b.push_back(b.flit_drop(1, c));
  }
  EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultPlan, RateBoundsAndWindow) {
  FaultSpec zero;
  zero.flit_drop = 0.0;
  Plan z(zero);
  FaultSpec one;
  one.flit_drop = 1.0;
  Plan o(one);
  FaultSpec windowed;
  windowed.flit_drop = 1.0;
  windowed.window = 10;
  Plan w(windowed);
  for (std::uint64_t c = 1; c <= 50; ++c) {
    EXPECT_FALSE(z.flit_drop(0, c));
    EXPECT_TRUE(o.flit_drop(0, c));
    EXPECT_EQ(w.flit_drop(0, c), c <= 10);
  }
}

TEST(FaultPlan, Crc32MatchesKnownVector) {
  // The standard IEEE 802.3 check value for "123456789".
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg, sizeof(msg)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// --- co-simulation fixtures ----------------------------------------------------

/// The fanout workload under `plan`, driven for a fixed cycle count
/// (run_cycles is exact at every threads/window configuration; run() is
/// not) and captured; the cosim stays open for its fabric's statistics.
struct Fanout {
  MappedFixture fx{make_fanout_domain(), fanout_mesh_marks()};
  CoSimulation cosim;
  Observed seen;

  Fanout(Plan* plan, int threads, int window,
         std::uint64_t total_cycles = 600)
      : cosim(*fx.system, [&] {
          CoSimConfig cfg;
          cfg.threads = threads;
          cfg.window = window;
          cfg.fault = plan;
          return cfg;
        }()) {
    const InstanceHandle boss = boot_fanout(cosim).boss;
    Recorder rec(cosim);
    // Three kicks separated by fixed chunks, so retransmissions overlap new
    // traffic; the chunk sizes are deliberately not window multiples.
    for (int i = 0; i < 3; ++i) {
      cosim.inject(boss, "go");
      cosim.run_cycles(97);
    }
    cosim.run_cycles(total_cycles - 3 * 97);
    seen = rec.take();
  }

  const noc::FabricFaultStats& faults() const {
    return cosim.fabric().fault_stats();
  }
};

// --- disabled path -------------------------------------------------------------

TEST(FaultCosim, ZeroRatePlanIsByteIdenticalToNoPlan) {
  FaultSpec zero;  // all rates 0: the plan is attached but injects nothing
  Plan plan(zero);
  Fanout without(nullptr, 1, 0);
  Fanout with(&plan, 1, 0);
  // The attached plan adds report()'s "faults" section: the plan's seed
  // and every fabric fault counter at zero (the transport never armed).
  // Everything else must match byte for byte.
  obs::JsonValue faults = obs::JsonValue::object();
  faults["seed"] = zero.seed;
  faults["noc"] = cosim::to_json(noc::FabricFaultStats{});
  Observed cut = with.seen;
  expect_and_cut_section(cut, "faults", faults);
  expect_identical(without.seen, cut, "zero-rate plan vs no plan");
}

// --- determinism under faults --------------------------------------------------

FaultSpec noisy_spec() {
  FaultSpec s;
  s.seed = 7;
  s.flit_drop = 0.05;
  s.flit_corrupt = 0.05;
  s.link_down = 0.01;
  return s;
}

TEST(FaultCosim, FaultsAreByteIdenticalAcrossThreadsAndWindows) {
  Plan base_plan(noisy_spec());
  Fanout base(&base_plan, 1, 1);
  // Faults must actually fire for this test to mean anything.
  EXPECT_GT(base.faults().flits_dropped + base.faults().flits_corrupted +
                base.faults().link_down_events,
            0u);
  for (int threads : {1, 2, 8}) {
    for (int window : {1, 0}) {
      if (threads == 1 && window == 1) continue;
      Plan plan(noisy_spec());
      Fanout r(&plan, threads, window);
      expect_identical(base.seen, r.seen,
                       "threads=" + std::to_string(threads) +
                           " window=" + std::to_string(window));
    }
  }
}

// --- resilience ----------------------------------------------------------------

TEST(FaultCosim, CrcCatchesEveryCorruptedFlit) {
  FaultSpec s;
  s.seed = 11;
  s.flit_corrupt = 0.3;
  Plan plan(s);
  Fanout r(&plan, 1, 0);
  EXPECT_GT(r.faults().flits_corrupted, 0u);
  EXPECT_GT(r.faults().crc_rejects, 0u);
  // The resilience claim: corruption is injected, detected, and NEVER
  // reaches a delivered frame.
  EXPECT_EQ(r.faults().tainted_delivered, 0u);
  // Rejected frames were retransmitted and the workload still completed.
  EXPECT_GT(r.faults().retransmissions, 0u);
  EXPECT_GT(r.cosim.fabric().stats().frames_delivered, 0u);
}

TEST(FaultCosim, ExhaustedRetryBudgetReportsLossNotAHang) {
  FaultSpec s;
  s.seed = 3;
  s.flit_drop = 1.0;  // every flit dies; no frame can ever arrive
  s.retry_budget = 2;
  Plan plan(s);
  // A long fixed run: every frame must resolve to a reported loss within
  // it (deadlines double per attempt but the budget is 2).
  Fanout r(&plan, 1, 0, 3000);
  const noc::FabricStats stats = r.cosim.fabric().stats();
  EXPECT_EQ(stats.frames_delivered, 0u);
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_EQ(r.faults().frames_lost, stats.frames_sent);
  EXPECT_GT(r.faults().flits_dropped, 0u);
}

TEST(FaultCosim, BusErrorsRetryThenDrop) {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  MappedFixture fx(make_pipeline_domain(), std::move(m));

  FaultSpec s;
  s.seed = 21;
  s.bus_error = 0.5;
  Plan plan(s);
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation cosim(*fx.system, cfg);
  auto consumer = cosim.create("Consumer");
  auto producer = cosim.create_with("Producer", {{"sink", Value(consumer)}});
  for (int i = 0; i < 20; ++i) {
    cosim.inject(producer, "kick");
    cosim.run_cycles(40);
  }
  const cosim::BusFaultStats& f = cosim.bus().fault_stats();
  EXPECT_GT(f.errors, 0u);
  EXPECT_GT(f.retries, 0u);
  // A transfer only drops after the budget; the first few errors always
  // retry, so retries trail errors by exactly the drops' final attempts.
  EXPECT_LE(f.frames_dropped * 1u, f.errors);
  // And the pipeline still moved traffic.
  EXPECT_GT(cosim.bus().stats().frames_to_hw, 0u);
}

TEST(FaultCosim, ReportCarriesFaultSection) {
  Plan plan(noisy_spec());
  MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation cosim(*fx.system, cfg);
  cosim.run_cycles(64);
  obs::Snapshot snap = cosim.report();
  EXPECT_EQ(snap.at("faults").at("seed").as_uint(), 7u);
  EXPECT_NE(snap.at("faults").find("noc"), nullptr);

  // Without a plan the section must not exist at all.
  CoSimulation plain(*fx.system, {});
  plain.run_cycles(64);
  EXPECT_EQ(plain.report().find("faults"), nullptr);
}

// --- the bridge ----------------------------------------------------------------

std::unique_ptr<xtuml::Domain> make_ping_domain() {
  xtuml::DomainBuilder b("Ping");
  b.cls("PongProxy").event("ping", {{"n", xtuml::DataType::kInt}});
  b.cls("Pinger")
      .attr("sent", xtuml::DataType::kInt)
      .ref_attr("out", "PongProxy")
      .event("go", {{"n", xtuml::DataType::kInt}})
      .state("Run",
             "self.sent = self.sent + 1;\n"
             "generate ping(n: param.n) to self.out;")
      .transition("Run", "go", "Run");
  return b.take();
}

std::unique_ptr<xtuml::Domain> make_pong_domain() {
  xtuml::DomainBuilder b("Pong");
  b.cls("Ponger")
      .attr("got", xtuml::DataType::kInt)
      .event("hit", {{"n", xtuml::DataType::kInt}})
      .state("Count", "self.got = self.got + 1;")
      .transition("Count", "hit", "Count");
  return b.take();
}

struct BridgedPair {
  std::unique_ptr<xtuml::Domain> ping_d = make_ping_domain();
  std::unique_ptr<xtuml::Domain> pong_d = make_pong_domain();
  std::unique_ptr<oal::CompiledDomain> ping, pong;
  bridge::SystemDef def;

  BridgedPair() {
    DiagnosticSink sink;
    ping = oal::compile_domain(*ping_d, sink);
    pong = oal::compile_domain(*pong_d, sink);
    if (!ping || !pong) throw std::runtime_error(sink.to_string());
    def.add_domain(*ping);
    def.add_domain(*pong);
    def.add_wire({"Ping", "PongProxy", "ping", "Pong", "Ponger", "hit"});
  }
};

TEST(FaultBridge, CertainFailureDropsAfterBudgetWithoutWedging) {
  BridgedPair sys;
  FaultSpec s;
  s.bus_error = 1.0;  // every carry attempt fails
  s.retry_budget = 3;
  Plan plan(s);
  bridge::SystemExecutor exec(sys.def, {}, &plan);
  auto proxy = exec.domain("Ping").create("PongProxy");
  auto pinger =
      exec.domain("Ping").create_with("Pinger", {{"out", Value(proxy)}});
  auto ponger = exec.domain("Pong").create("Ponger");
  exec.bind(proxy, "Ping", ponger, "Pong");

  exec.domain("Ping").inject(pinger, "go", {Value(std::int64_t{1})});
  exec.run_all();  // must terminate despite the 100% carry failure rate
  EXPECT_EQ(exec.forwarded_count(), 1u);
  EXPECT_EQ(exec.dropped_forward_count(), 1u);
  EXPECT_EQ(exec.retried_forward_count(), 3u);  // = the budget
}

TEST(FaultBridge, IntermittentFailureRetriesThenDelivers) {
  BridgedPair sys;
  FaultSpec s;
  s.seed = 5;
  s.bus_error = 0.5;
  s.retry_budget = 16;  // generous: loss odds at 0.5^17 are negligible
  Plan plan(s);
  bridge::SystemExecutor exec(sys.def, {}, &plan);
  auto proxy = exec.domain("Ping").create("PongProxy");
  auto pinger =
      exec.domain("Ping").create_with("Pinger", {{"out", Value(proxy)}});
  auto ponger = exec.domain("Pong").create("Ponger");
  exec.bind(proxy, "Ping", ponger, "Pong");

  for (int i = 0; i < 10; ++i) {
    exec.domain("Ping").inject(pinger, "go", {Value(std::int64_t{i})});
  }
  exec.run_all();
  EXPECT_EQ(exec.forwarded_count(), 10u);
  EXPECT_EQ(exec.dropped_forward_count(), 0u);
  EXPECT_GT(exec.retried_forward_count(), 0u);

  const auto* got = sys.pong->domain().find_class("Ponger")
                        ->find_attribute("got");
  EXPECT_EQ(std::get<std::int64_t>(
                exec.domain("Pong").database().get_attr(ponger, got->id)),
            10);
}

// --- campaigns -----------------------------------------------------------------

TEST(FaultCampaign, SeedDerivationIsStableAndDistinct) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 16; ++i) {
    seeds.push_back(Campaign::seed_for(42, i));
    EXPECT_NE(seeds.back(), 0u);
    EXPECT_EQ(seeds.back(), Campaign::seed_for(42, i));  // stable
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());

  FaultSpec base;
  base.seed = 42;
  base.flit_drop = 0.25;
  Campaign c(base, 4, 1);
  EXPECT_EQ(c.spec_for(2).seed, Campaign::seed_for(42, 2));
  EXPECT_DOUBLE_EQ(c.spec_for(2).flit_drop, 0.25);  // rates carry over
}

TEST(FaultCampaign, SnapshotIsByteIdenticalAtEveryThreadCount) {
  FaultSpec base;
  base.seed = 42;
  base.flit_drop = 0.02;
  base.flit_corrupt = 0.02;

  auto one_run = [&](int index, std::uint64_t) {
    Plan plan(Campaign(base, 8, 1).spec_for(index));
    MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
    CoSimConfig cfg;
    cfg.fault = &plan;
    CoSimulation cosim(*fx.system, cfg);
    cosim.inject(boot_fanout(cosim).boss, "go");
    cosim.run_cycles(400);
    return cosim::outcome_of(cosim, plan);
  };

  std::string serial;
  for (int threads : {1, 2, 8}) {
    Campaign campaign(base, 8, threads);
    CampaignResult result = campaign.run(one_run);
    ASSERT_EQ(result.runs.size(), 8u);
    std::string doc = result.to_snapshot().to_json(2);
    if (threads == 1) {
      serial = doc;
      // At these rates the transport absorbs everything.
      EXPECT_EQ(result.survivors(), 8u) << doc;
    } else {
      EXPECT_EQ(doc, serial) << "threads=" << threads;
    }
  }
}

TEST(FaultCampaign, RunErrorsPropagate) {
  FaultSpec base;
  Campaign campaign(base, 4, 2);
  EXPECT_THROW(
      campaign.run([](int index, std::uint64_t) -> RunOutcome {
        if (index == 2) throw std::runtime_error("run exploded");
        return {};
      }),
      std::runtime_error);
}

}  // namespace
}  // namespace xtsoc::fault
