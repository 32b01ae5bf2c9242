#include <gtest/gtest.h>

#include <algorithm>

#include "test_models.hpp"
#include "xtsoc/cosim/bus.hpp"
#include "xtsoc/cosim/codec.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/hwsim/vcd.hpp"

namespace xtsoc::cosim {
namespace {

using runtime::InstanceHandle;
using runtime::Value;
using testing::MappedFixture;
using testing::make_pipeline_domain;
using xtuml::ScalarValue;

marks::MarkSet hw_consumer_marks(int bus_latency = 2) {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.set_domain_mark(marks::kBusLatency,
                    ScalarValue(static_cast<std::int64_t>(bus_latency)));
  return m;
}

// --- bus ----------------------------------------------------------------------

TEST(Bus, HandshakeRejectsMismatch) {
  Bus bus(1);
  EXPECT_THROW(bus.connect("aaaa", "bbbb"), InterfaceMismatch);
  EXPECT_FALSE(bus.connected());
  bus.connect("aaaa", "aaaa");
  EXPECT_TRUE(bus.connected());
}

TEST(Bus, UseBeforeConnectRejected) {
  Bus bus(1);
  EXPECT_THROW(bus.push_to_hw(Frame{}, 0), InterfaceMismatch);
}

TEST(Bus, LatencyDelaysDelivery) {
  Bus bus(3);
  bus.connect("x", "x");
  bus.push_to_hw(Frame{7, {1, 2}, 0}, /*current_cycle=*/10);
  EXPECT_TRUE(bus.pop_due_to_hw(12).empty());
  auto due = bus.pop_due_to_hw(13);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].opcode, 7u);
  EXPECT_TRUE(bus.empty());
}

TEST(Bus, ExtraDelayAddsToLatency) {
  Bus bus(1);
  bus.connect("x", "x");
  bus.push_to_sw(Frame{1, {}, 0}, 0, /*extra_delay=*/5);
  EXPECT_TRUE(bus.pop_due_to_sw(5).empty());
  EXPECT_EQ(bus.pop_due_to_sw(6).size(), 1u);
}

TEST(Bus, OrderPreservedAmongDue) {
  Bus bus(0);
  bus.connect("x", "x");
  bus.push_to_hw(Frame{1, {}, 0}, 0);
  bus.push_to_hw(Frame{2, {}, 0}, 0);
  auto due = bus.pop_due_to_hw(0);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].opcode, 1u);
  EXPECT_EQ(due[1].opcode, 2u);
}

TEST(Bus, StatsCountFramesAndBytes) {
  Bus bus(0);
  bus.connect("x", "x");
  bus.push_to_hw(Frame{1, {1, 2, 3}, 0}, 0);
  bus.push_to_sw(Frame{2, {9}, 0}, 0);
  EXPECT_EQ(bus.stats().frames_to_hw, 1u);
  EXPECT_EQ(bus.stats().bytes_to_hw, 3u);
  EXPECT_EQ(bus.stats().frames_to_sw, 1u);
  EXPECT_EQ(bus.stats().bytes_to_sw, 1u);
}

// --- end-to-end partitioned execution -------------------------------------------

struct PipelineCosim {
  MappedFixture fx;
  CoSimulation cosim;
  InstanceHandle consumer;
  InstanceHandle producer;

  explicit PipelineCosim(marks::MarkSet m, CoSimConfig cfg = {})
      : fx(make_pipeline_domain(), std::move(m)), cosim(*fx.system, cfg) {
    consumer = cosim.create("Consumer");
    producer = cosim.create_with("Producer", {{"sink", Value(consumer)}});
  }

  std::int64_t attr(const InstanceHandle& h, const char* cls,
                    const char* name) {
    const auto* a = fx.domain->find_class(cls)->find_attribute(name);
    return std::get<std::int64_t>(
        cosim.executor_of(h.cls).database().get_attr(h, a->id));
  }
};

TEST(CoSim, CrossBoundaryRoundTrip) {
  PipelineCosim p(hw_consumer_marks());
  p.cosim.inject(p.producer, "kick");
  std::uint64_t cycles = p.cosim.run();
  EXPECT_TRUE(p.cosim.quiescent());
  EXPECT_GT(cycles, 0u);

  // Producer sent one unit of work; Consumer accumulated it in hardware and
  // acked back across the bus.
  EXPECT_EQ(p.attr(p.producer, "Producer", "sent"), 1);
  EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 1);
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
}

TEST(CoSim, RepeatedKicksAccumulate) {
  PipelineCosim p(hw_consumer_marks());
  for (int i = 0; i < 5; ++i) {
    p.cosim.inject(p.producer, "kick");
    p.cosim.run();
  }
  EXPECT_EQ(p.attr(p.producer, "Producer", "sent"), 5);
  EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 5);
  // total = 1+2+3+4+5
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 15);
}

TEST(CoSim, BusLatencyAffectsCompletionTime) {
  PipelineCosim fast(hw_consumer_marks(1));
  PipelineCosim slow(hw_consumer_marks(50));
  fast.cosim.inject(fast.producer, "kick");
  slow.cosim.inject(slow.producer, "kick");
  std::uint64_t fast_cycles = fast.cosim.run();
  std::uint64_t slow_cycles = slow.cosim.run();
  EXPECT_LT(fast_cycles, slow_cycles);
  // Same functional result either way.
  EXPECT_EQ(fast.attr(fast.consumer, "Consumer", "total"),
            slow.attr(slow.consumer, "Consumer", "total"));
}

TEST(CoSim, ForgedDigestDetectedAtConnect) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  CoSimConfig cfg;
  cfg.forged_sw_digest = "deadbeef";
  EXPECT_THROW(CoSimulation(*fx.system, cfg), InterfaceMismatch);
}

TEST(CoSim, PureSoftwareSystemRuns) {
  marks::MarkSet none;
  PipelineCosim p(std::move(none));
  p.cosim.inject(p.producer, "kick");
  p.cosim.run();
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
  EXPECT_EQ(p.cosim.bus().stats().frames_to_hw, 0u);
  EXPECT_EQ(p.cosim.bus().stats().frames_to_sw, 0u);
}

TEST(CoSim, AllHardwareSystemRuns) {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.mark_hardware("Producer");
  PipelineCosim p(std::move(m));
  p.cosim.inject(p.producer, "kick");
  p.cosim.run();
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
  // Everything stayed inside the fabric.
  EXPECT_EQ(p.cosim.bus().stats().frames_to_hw, 0u);
  EXPECT_EQ(p.cosim.bus().stats().frames_to_sw, 0u);
  EXPECT_GT(p.cosim.hw_executor().dispatch_count(), 0u);
  EXPECT_EQ(p.cosim.sw_executor().dispatch_count(), 0u);
}

TEST(CoSim, RepartitionByMovingOneMark) {
  // The paper's §4 workflow end-to-end: identical model, flip one mark,
  // identical functional outcome, different placement.
  auto run_with = [](marks::MarkSet m) {
    PipelineCosim p(std::move(m));
    p.cosim.inject(p.producer, "kick");
    p.cosim.run();
    return std::tuple(p.attr(p.consumer, "Consumer", "total"),
                      p.cosim.hw_executor().dispatch_count(),
                      p.cosim.sw_executor().dispatch_count());
  };

  auto [total_hw, hwd1, swd1] = run_with(hw_consumer_marks());
  marks::MarkSet sw_only;
  auto [total_sw, hwd2, swd2] = run_with(std::move(sw_only));

  EXPECT_EQ(total_hw, total_sw);        // same behaviour
  EXPECT_GT(hwd1, 0u);                  // consumer ran in hardware...
  EXPECT_EQ(hwd2, 0u);                  // ...then ran in software
  EXPECT_GT(swd2, swd1);
}

TEST(CoSim, DelayedSignalCrossesBoundaryLate) {
  PipelineCosim p(hw_consumer_marks(1));
  // Deliver the kick to the (software) producer after 10 cycles.
  p.cosim.inject(p.producer, "kick", {}, /*delay=*/10);
  std::uint64_t cycles = p.cosim.run();
  EXPECT_GE(cycles, 10u);
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
}

TEST(CoSim, HardwareConsumesOneEventPerInstancePerCycle) {
  // Two kicks to the same producer: each round trip is serialized through
  // the single Consumer instance, so hardware dispatches happen on distinct
  // cycles. With N back-to-back work items for ONE hw instance, hw needs >=
  // N cycles.
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks(0));
  CoSimConfig cfg;
  cfg.sw_steps_per_cycle = 100;  // software is "infinitely" fast
  CoSimulation cosim(*fx.system, cfg);
  auto consumer = cosim.create("Consumer");
  // Three producers all target the same consumer.
  std::vector<InstanceHandle> producers;
  for (int i = 0; i < 3; ++i) {
    producers.push_back(
        cosim.create_with("Producer", {{"sink", Value(consumer)}}));
  }
  for (auto& pr : producers) cosim.inject(pr, "kick");
  cosim.run();
  // The lone consumer instance processed 3 work signals, one per cycle:
  // at least 3 hardware cycles must have elapsed.
  EXPECT_EQ(cosim.hw_executor().dispatch_count(), 3u);
  EXPECT_GE(cosim.cycles(), 3u);
}

TEST(CoSim, ClockDomainDividerSlowsClass) {
  // The same system with the Consumer in a /8 clock domain takes longer to
  // drain but computes the same answers.
  auto run_with_divider = [](std::int64_t divider) {
    marks::MarkSet m = hw_consumer_marks(1);
    if (divider > 1) {
      m.set_class_mark("Consumer", marks::kClockDomain, ScalarValue(divider));
    }
    PipelineCosim p(std::move(m));
    for (int i = 0; i < 3; ++i) {
      p.cosim.inject(p.producer, "kick");
      p.cosim.run();
    }
    return std::pair(p.cosim.cycles(),
                     p.attr(p.consumer, "Consumer", "total"));
  };
  auto [fast_cycles, fast_total] = run_with_divider(1);
  auto [slow_cycles, slow_total] = run_with_divider(8);
  EXPECT_EQ(fast_total, slow_total);
  EXPECT_LT(fast_cycles, slow_cycles);
}

TEST(CoSim, ClockDomainPreservesConformance) {
  marks::MarkSet m = hw_consumer_marks(2);
  m.set_class_mark("Consumer", marks::kClockDomain,
                   ScalarValue(std::int64_t{4}));
  PipelineCosim p(std::move(m));
  p.cosim.inject(p.producer, "kick");
  std::uint64_t cycles = p.cosim.run();
  EXPECT_TRUE(p.cosim.quiescent());
  EXPECT_GE(cycles, 4u);
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
  EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 1);
}

TEST(CoSim, ActivityWiresAndWaveformCapture) {
  PipelineCosim p(hw_consumer_marks(1));
  ClassId consumer_cls = p.fx.domain->find_class_id("Consumer");
  HwSignalId alive = p.cosim.hw_domain().alive_wire(consumer_cls);
  HwSignalId busy = p.cosim.hw_domain().busy_wire(consumer_cls);
  ASSERT_TRUE(alive.is_valid());
  ASSERT_TRUE(busy.is_valid());

  hwsim::VcdWriter vcd(p.cosim.hw_sim(), {alive, busy});
  p.cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });

  p.cosim.inject(p.producer, "kick");
  p.cosim.run();

  // One consumer instance alive; it was busy at some cycle.
  EXPECT_EQ(p.cosim.hw_sim().read(alive), 1u);
  std::string waveform = vcd.render();
  EXPECT_NE(waveform.find("hw.Consumer.alive"), std::string::npos);
  EXPECT_NE(waveform.find("hw.Consumer.busy"), std::string::npos);
  // The busy wire pulsed: both a rise to 1 and a fall to 0 appear.
  EXPECT_NE(waveform.find("1\""), std::string::npos);
  EXPECT_GT(vcd.change_count(), 2u);
}

TEST(CoSim, HardwarePoolCapacityEnforced) {
  marks::MarkSet m = hw_consumer_marks();
  m.set_class_mark("Consumer", marks::kMaxInstances,
                   ScalarValue(std::int64_t{2}));
  MappedFixture fx(make_pipeline_domain(), std::move(m));
  CoSimulation cosim(*fx.system);
  cosim.create("Consumer");
  cosim.create("Consumer");
  EXPECT_THROW(cosim.create("Consumer"), runtime::ModelError);
  // Software classes are heap-backed: no such cap.
  for (int i = 0; i < 10; ++i) cosim.create("Producer");
}

TEST(CoSim, HardwareActionCanSpawnIntoOwnPool) {
  // A hardware class whose action creates more instances of itself: legal
  // (same-partition data access) and runs inside the fabric.
  xtuml::DomainBuilder b("Spawn");
  b.cls("Cell")
      .attr("generation", xtuml::DataType::kInt)
      .event("divide")
      .state("Idle")
      .state("Dividing",
             "create object instance child of Cell;\n"
             "child.generation = self.generation + 1;")
      .transition("Idle", "divide", "Dividing")
      .transition("Dividing", "divide", "Dividing");
  marks::MarkSet m;
  m.mark_hardware("Cell");
  MappedFixture fx(b.take(), std::move(m));
  CoSimulation cosim(*fx.system);
  auto seed = cosim.create("Cell");
  for (int i = 0; i < 3; ++i) cosim.inject(seed, "divide");
  cosim.run();
  EXPECT_EQ(cosim.hw_executor().database().live_count(
                fx.domain->find_class_id("Cell")),
            4u);
}

TEST(CoSim, UnknownClassOrEventThrows) {
  PipelineCosim p(hw_consumer_marks());
  EXPECT_THROW(p.cosim.create("Nope"), runtime::ModelError);
  EXPECT_THROW(p.cosim.inject(p.producer, "nope"), runtime::ModelError);
}

TEST(CoSim, TracesLandInOwningPartition) {
  PipelineCosim p(hw_consumer_marks());
  p.cosim.inject(p.producer, "kick");
  p.cosim.run();
  // Consumer's dispatches are recorded in the hardware trace only.
  auto hw_proj = p.cosim.hw_executor().trace().projection(p.consumer);
  auto sw_proj = p.cosim.sw_executor().trace().projection(p.producer);
  bool hw_has_dispatch = false;
  for (const auto& e : hw_proj) {
    if (e.kind == runtime::TraceKind::kDispatch) hw_has_dispatch = true;
  }
  bool sw_has_dispatch = false;
  for (const auto& e : sw_proj) {
    if (e.kind == runtime::TraceKind::kDispatch) sw_has_dispatch = true;
  }
  EXPECT_TRUE(hw_has_dispatch);
  EXPECT_TRUE(sw_has_dispatch);
}

// Property sweep: functional results are identical across bus latencies and
// software speed ratios (performance changes, function does not).
class CosimParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CosimParamSweep, FunctionInvariantUnderTimingParams) {
  auto [latency, sw_steps] = GetParam();
  CoSimConfig cfg;
  cfg.sw_steps_per_cycle = sw_steps;
  PipelineCosim p(hw_consumer_marks(latency), cfg);
  for (int i = 0; i < 3; ++i) {
    p.cosim.inject(p.producer, "kick");
    p.cosim.run();
  }
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 6);  // 1+2+3
  EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 3);
}

INSTANTIATE_TEST_SUITE_P(LatencyAndSpeed, CosimParamSweep,
                         ::testing::Combine(::testing::Values(0, 1, 4, 16),
                                            ::testing::Values(1, 4, 32)));

// --- codec ---------------------------------------------------------------------

TEST(Codec, UnknownMessageRejected) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  runtime::EventMessage m;
  m.target = InstanceHandle{fx.domain->find_class_id("Consumer"), 0, 0};
  m.event = EventId(99);
  EXPECT_THROW(encode_message(fx.system->interface(), m), InterfaceMismatch);

  Frame f;
  f.opcode = 1234;
  EXPECT_THROW(decode_frame(fx.system->interface(), f), InterfaceMismatch);
}

TEST(Codec, MessageRoundTrip) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks());
  ClassId consumer = fx.domain->find_class_id("Consumer");
  runtime::EventMessage m;
  m.target = InstanceHandle{consumer, 2, 0};
  m.event = fx.domain->cls(consumer).find_event("work")->id;
  m.args = {Value(std::int64_t{41}), Value(0.5),
            Value(InstanceHandle{fx.domain->find_class_id("Producer"), 1, 0})};
  Frame f = encode_message(fx.system->interface(), m);
  runtime::EventMessage back = decode_frame(fx.system->interface(), f);
  EXPECT_EQ(back.target, m.target);
  EXPECT_EQ(back.event, m.event);
  ASSERT_EQ(back.args.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(back.args[0]), 41);
  EXPECT_DOUBLE_EQ(std::get<double>(back.args[1]), 0.5);
  EXPECT_TRUE(back.sender.is_null());
}

// --- parallel-kernel determinism at the cosim level ----------------------------
//
// CoSimConfig::threads must leave every observable byte unchanged: executor
// traces in each partition, hardware cycle count, kernel SimStats, and the
// captured VCD waveform. One bus-mode workload and one multi-domain mesh
// workload, each diffed at threads = 1/2/8.

/// Everything observable from one cosim run.
struct CosimDeterminismRun {
  std::string hw_traces;  ///< all hardware domains' traces, in domain order
  std::string sw_trace;
  std::string vcd;
  std::uint64_t cycles = 0;
  hwsim::SimStats sim_stats;
  std::vector<std::int64_t> attrs;
};

TEST(CoSimParallel, BusPipelineByteIdenticalAcrossThreadCounts) {
  auto run_once = [](int threads) {
    CoSimConfig cfg;
    cfg.threads = threads;
    PipelineCosim p(hw_consumer_marks(2), cfg);
    hwsim::VcdWriter vcd(p.cosim.hw_sim());
    p.cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
    for (int i = 0; i < 4; ++i) {
      p.cosim.inject(p.producer, "kick", {}, static_cast<std::uint64_t>(i));
      p.cosim.run(2000);
    }
    CosimDeterminismRun r;
    for (const auto& hw : p.cosim.hw_domains()) {
      r.hw_traces += hw->executor().trace().to_string();
    }
    r.sw_trace = p.cosim.sw_executor().trace().to_string();
    r.vcd = vcd.render();
    r.cycles = p.cosim.cycles();
    r.sim_stats = p.cosim.hw_sim().stats();
    r.attrs = {p.attr(p.producer, "Producer", "sent"),
               p.attr(p.producer, "Producer", "acks"),
               p.attr(p.consumer, "Consumer", "total")};
    return r;
  };

  CosimDeterminismRun serial = run_once(1);
  EXPECT_FALSE(serial.hw_traces.empty());
  for (int threads : {2, 8}) {
    CosimDeterminismRun par = run_once(threads);
    EXPECT_EQ(par.hw_traces, serial.hw_traces) << "threads=" << threads;
    EXPECT_EQ(par.sw_trace, serial.sw_trace) << "threads=" << threads;
    EXPECT_EQ(par.vcd, serial.vcd) << "threads=" << threads;
    EXPECT_EQ(par.cycles, serial.cycles) << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.delta_cycles, serial.sim_stats.delta_cycles)
        << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.process_activations,
              serial.sim_stats.process_activations)
        << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.wire_commits, serial.sim_stats.wire_commits)
        << "threads=" << threads;
    EXPECT_EQ(par.attrs, serial.attrs) << "threads=" << threads;
  }
}

/// A software boss fanning work out to three hardware workers on separate
/// mesh tiles (three concurrently evaluated hardware clock domains — the
/// shape the parallel kernel actually accelerates).
std::unique_ptr<xtuml::Domain> make_fanout_domain() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Fan");
  b.cls("Boss", "BSS");
  for (int i = 0; i < 3; ++i) b.cls("W" + std::to_string(i));
  auto boss = b.edit("Boss");
  boss.attr("acks", DataType::kInt)
      .ref_attr("w0", "W0")
      .ref_attr("w1", "W1")
      .ref_attr("w2", "W2")
      .event("go")
      .event("done", {{"v", DataType::kInt}})
      .state("Idle")
      .state("Fanning",
             "generate job(n: 1, who: self) to self.w0;\n"
             "generate job(n: 2, who: self) to self.w1;\n"
             "generate job(n: 3, who: self) to self.w2;")
      .transition("Idle", "go", "Fanning")
      .transition("Fanning", "go", "Fanning");
  boss.state("Collect", "self.acks = self.acks + 1;")
      .transition("Fanning", "done", "Collect")
      .transition("Collect", "done", "Collect")
      .transition("Collect", "go", "Fanning");
  for (int i = 0; i < 3; ++i) {
    b.edit("W" + std::to_string(i))
        .attr("sum", DataType::kInt)
        .event("job", {{"n", DataType::kInt}, b.ref_param("who", "Boss")})
        .state("Work",
               "self.sum = self.sum + param.n;\n"
               "generate done(v: param.n) to param.who;")
        .transition("Work", "job", "Work");
  }
  return b.take();
}

marks::MarkSet fanout_mesh_marks() {
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};  // sw owns (0,0)
  for (int i = 0; i < 3; ++i) {
    std::string cls = "W" + std::to_string(i);
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

TEST(CoSimParallel, MeshFanoutByteIdenticalAcrossThreadCounts) {
  auto run_once = [](int threads) {
    MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
    CoSimConfig cfg;
    cfg.threads = threads;
    CoSimulation cosim(*fx.system, cfg);
    auto w0 = cosim.create("W0");
    auto w1 = cosim.create("W1");
    auto w2 = cosim.create("W2");
    auto boss = cosim.create_with(
        "Boss", {{"w0", Value(w0)}, {"w1", Value(w1)}, {"w2", Value(w2)}});
    EXPECT_EQ(cosim.hw_domains().size(), 3u);
    hwsim::VcdWriter vcd(cosim.hw_sim());
    cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
    for (int i = 0; i < 3; ++i) {
      cosim.inject(boss, "go");
      cosim.run(5000);
    }
    CosimDeterminismRun r;
    for (const auto& hw : cosim.hw_domains()) {
      r.hw_traces += hw->executor().trace().to_string();
    }
    r.sw_trace = cosim.sw_executor().trace().to_string();
    r.vcd = vcd.render();
    r.cycles = cosim.cycles();
    r.sim_stats = cosim.hw_sim().stats();
    auto attr_of = [&](const InstanceHandle& h, const char* cls,
                       const char* name) {
      const auto* a = fx.domain->find_class(cls)->find_attribute(name);
      return std::get<std::int64_t>(
          cosim.executor_of(h.cls).database().get_attr(h, a->id));
    };
    r.attrs = {attr_of(boss, "Boss", "acks"), attr_of(w0, "W0", "sum"),
               attr_of(w1, "W1", "sum"), attr_of(w2, "W2", "sum")};
    EXPECT_EQ(r.attrs[0], 9);  // 3 kicks x 3 workers
    EXPECT_EQ(r.attrs[1] + r.attrs[2] + r.attrs[3], 18);  // 3 x (1+2+3)
    return r;
  };

  CosimDeterminismRun serial = run_once(1);
  for (int threads : {2, 8}) {
    CosimDeterminismRun par = run_once(threads);
    EXPECT_EQ(par.hw_traces, serial.hw_traces) << "threads=" << threads;
    EXPECT_EQ(par.sw_trace, serial.sw_trace) << "threads=" << threads;
    EXPECT_EQ(par.vcd, serial.vcd) << "threads=" << threads;
    EXPECT_EQ(par.cycles, serial.cycles) << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.delta_cycles, serial.sim_stats.delta_cycles)
        << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.process_activations,
              serial.sim_stats.process_activations)
        << "threads=" << threads;
    EXPECT_EQ(par.sim_stats.wire_commits, serial.sim_stats.wire_commits)
        << "threads=" << threads;
    EXPECT_EQ(par.attrs, serial.attrs) << "threads=" << threads;
  }
}

// --- windowed (conservative-lookahead) execution -------------------------------
//
// CoSimConfig::window must also leave every observable byte unchanged. The
// runs below diff traces, VCD, cycle counts, SimStats, interconnect stats
// and final attributes across a (window x threads) grid against the serial
// per-cycle lockstep baseline (window=1, threads=1). run_cycles() is used
// so every configuration executes the exact same number of cycles,
// including partial tail windows (97 and 61 are deliberately not multiples
// of any window size).

/// CosimDeterminismRun plus the interconnect's own statistics rendered to
/// text (BusStats fields in bus mode, FabricStats::to_table() in mesh mode).
struct WindowedRun {
  CosimDeterminismRun base;
  std::string interconnect;
  int lookahead = 0;
  int window = 0;
};

TEST(CoSimWindowed, BusPipelineByteIdenticalAcrossWindowsAndThreads) {
  auto run_once = [](int window, int threads) {
    CoSimConfig cfg;
    cfg.window = window;
    cfg.threads = threads;
    PipelineCosim p(hw_consumer_marks(8), cfg);
    hwsim::VcdWriter vcd(p.cosim.hw_sim());
    p.cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
    for (int i = 0; i < 4; ++i) {
      p.cosim.inject(p.producer, "kick", {}, static_cast<std::uint64_t>(i));
      p.cosim.run_cycles(97);
    }
    p.cosim.run_cycles(61);
    WindowedRun r;
    for (const auto& hw : p.cosim.hw_domains()) {
      r.base.hw_traces += hw->executor().trace().to_string();
    }
    r.base.sw_trace = p.cosim.sw_executor().trace().to_string();
    r.base.vcd = vcd.render();
    r.base.cycles = p.cosim.cycles();
    r.base.sim_stats = p.cosim.hw_sim().stats();
    r.base.attrs = {p.attr(p.producer, "Producer", "sent"),
                    p.attr(p.producer, "Producer", "acks"),
                    p.attr(p.consumer, "Consumer", "total")};
    const BusStats& bs = p.cosim.bus().stats();
    r.interconnect = std::to_string(bs.frames_to_hw) + "/" +
                     std::to_string(bs.bytes_to_hw) + "/" +
                     std::to_string(bs.frames_to_sw) + "/" +
                     std::to_string(bs.bytes_to_sw);
    r.lookahead = p.cosim.lookahead();
    r.window = p.cosim.window();
    return r;
  };

  WindowedRun serial = run_once(/*window=*/1, /*threads=*/1);
  EXPECT_EQ(serial.lookahead, 8);
  EXPECT_EQ(serial.window, 1);
  EXPECT_FALSE(serial.base.hw_traces.empty());
  EXPECT_EQ(serial.base.attrs, (std::vector<std::int64_t>{4, 4, 10}));
  for (int window : {0, 2, 8}) {
    for (int threads : {1, 2, 8}) {
      WindowedRun par = run_once(window, threads);
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(par.window, window == 0 ? 8 : window);
      EXPECT_EQ(par.base.hw_traces, serial.base.hw_traces);
      EXPECT_EQ(par.base.sw_trace, serial.base.sw_trace);
      EXPECT_EQ(par.base.vcd, serial.base.vcd);
      EXPECT_EQ(par.base.cycles, serial.base.cycles);
      EXPECT_EQ(par.base.sim_stats.delta_cycles,
                serial.base.sim_stats.delta_cycles);
      EXPECT_EQ(par.base.sim_stats.process_activations,
                serial.base.sim_stats.process_activations);
      EXPECT_EQ(par.base.sim_stats.wire_commits,
                serial.base.sim_stats.wire_commits);
      EXPECT_EQ(par.base.attrs, serial.base.attrs);
      EXPECT_EQ(par.interconnect, serial.interconnect);
    }
  }
}

TEST(CoSimWindowed, MeshFanoutByteIdenticalAcrossWindowsAndThreads) {
  auto run_once = [](int window, int threads) {
    marks::MarkSet m = fanout_mesh_marks();
    m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
    MappedFixture fx(make_fanout_domain(), std::move(m));
    CoSimConfig cfg;
    cfg.window = window;
    cfg.threads = threads;
    CoSimulation cosim(*fx.system, cfg);
    auto w0 = cosim.create("W0");
    auto w1 = cosim.create("W1");
    auto w2 = cosim.create("W2");
    auto boss = cosim.create_with(
        "Boss", {{"w0", Value(w0)}, {"w1", Value(w1)}, {"w2", Value(w2)}});
    hwsim::VcdWriter vcd(cosim.hw_sim());
    cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
    for (int i = 0; i < 3; ++i) {
      cosim.inject(boss, "go");
      cosim.run_cycles(97);
    }
    WindowedRun r;
    for (const auto& hw : cosim.hw_domains()) {
      r.base.hw_traces += hw->executor().trace().to_string();
    }
    r.base.sw_trace = cosim.sw_executor().trace().to_string();
    r.base.vcd = vcd.render();
    r.base.cycles = cosim.cycles();
    r.base.sim_stats = cosim.hw_sim().stats();
    auto attr_of = [&](const InstanceHandle& h, const char* cls,
                       const char* name) {
      const auto* a = fx.domain->find_class(cls)->find_attribute(name);
      return std::get<std::int64_t>(
          cosim.executor_of(h.cls).database().get_attr(h, a->id));
    };
    r.base.attrs = {attr_of(boss, "Boss", "acks"), attr_of(w0, "W0", "sum"),
                    attr_of(w1, "W1", "sum"), attr_of(w2, "W2", "sum")};
    EXPECT_EQ(r.base.attrs[0], 9);
    EXPECT_EQ(r.base.attrs[1] + r.base.attrs[2] + r.base.attrs[3], 18);
    r.interconnect = cosim.fabric().stats().to_table();
    r.lookahead = cosim.lookahead();
    r.window = cosim.window();
    return r;
  };

  WindowedRun serial = run_once(/*window=*/1, /*threads=*/1);
  EXPECT_EQ(serial.lookahead, 4);
  for (int window : {0, 2}) {
    for (int threads : {1, 2, 8}) {
      WindowedRun par = run_once(window, threads);
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(par.window, window == 0 ? 4 : window);
      EXPECT_EQ(par.base.hw_traces, serial.base.hw_traces);
      EXPECT_EQ(par.base.sw_trace, serial.base.sw_trace);
      EXPECT_EQ(par.base.vcd, serial.base.vcd);
      EXPECT_EQ(par.base.cycles, serial.base.cycles);
      EXPECT_EQ(par.base.sim_stats.delta_cycles,
                serial.base.sim_stats.delta_cycles);
      EXPECT_EQ(par.base.sim_stats.process_activations,
                serial.base.sim_stats.process_activations);
      EXPECT_EQ(par.base.sim_stats.wire_commits,
                serial.base.sim_stats.wire_commits);
      EXPECT_EQ(par.base.attrs, serial.base.attrs);
      EXPECT_EQ(par.interconnect, serial.interconnect);
    }
  }
}

TEST(CoSimWindowed, ZeroLatencyBusForcesLockstep) {
  // A zero-latency bus means a frame sent at cycle c is visible at cycle
  // c + 1 (pop_due at the next latch) — lookahead 1, so no window larger
  // than 1 is sound and the requested window must be ignored.
  CoSimConfig cfg;
  cfg.window = 8;
  cfg.threads = 4;
  PipelineCosim p(hw_consumer_marks(0), cfg);
  EXPECT_EQ(p.cosim.lookahead(), 1);
  EXPECT_EQ(p.cosim.window(), 1);
  p.cosim.inject(p.producer, "kick");
  p.cosim.run(2000);
  EXPECT_TRUE(p.cosim.quiescent());
  EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 1);
  EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 1);
}

TEST(CoSimWindowed, WindowClampsToLookahead) {
  auto window_for = [](int requested) {
    CoSimConfig cfg;
    cfg.window = requested;
    PipelineCosim p(hw_consumer_marks(8), cfg);
    EXPECT_EQ(p.cosim.lookahead(), 8);
    return p.cosim.window();
  };
  EXPECT_EQ(window_for(0), 8);   // auto: the full lookahead
  EXPECT_EQ(window_for(64), 8);  // clamped down: correctness bound
  EXPECT_EQ(window_for(2), 2);   // smaller is always sound
  EXPECT_EQ(window_for(1), 1);   // explicit lockstep
}

TEST(CoSimWindowed, RunOvershootsQuiescenceByLessThanOneWindow) {
  auto run_to_quiescence = [](int window) {
    CoSimConfig cfg;
    cfg.window = window;
    PipelineCosim p(hw_consumer_marks(8), cfg);
    p.cosim.inject(p.producer, "kick");
    std::uint64_t n = p.cosim.run(2000);
    EXPECT_TRUE(p.cosim.quiescent());
    EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 1);
    return n;
  };
  std::uint64_t exact = run_to_quiescence(/*window=*/1);
  std::uint64_t windowed = run_to_quiescence(/*window=*/0);
  EXPECT_GE(windowed, exact);
  EXPECT_LT(windowed, exact + 8);  // overshoot < one full window
}

// --- windowed mesh grids -----------------------------------------------------
//
// Phase A runs every tile's domain on the pool; phase B replays only the
// kernel writes that change a wire. The grids below drive a generic W x H
// mesh — one self-ticking FSM per hardware tile, the software CPU on
// tile 0 — through threads {1,2,8} x window {1,2,auto=L} x faults {off,on}
// and require every observable byte (traces, VCD, cycle count, SimStats,
// fabric and fault statistics, final attributes) to equal the serial
// lockstep baseline. 97 total cycles in chunks of 61+36, so no chunk is a
// multiple of any window size. At linkLatency 1 every window clamps to 1,
// so threads {2,8} run one-cycle windows against the lockstep loop.

std::unique_ptr<xtuml::Domain> make_grid_domain(int nodes) {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Grid");
  for (int i = 0; i < nodes; ++i) b.cls("N" + std::to_string(i));
  for (int i = 0; i < nodes; ++i) {
    std::string peer = "N" + std::to_string((i + 1) % nodes);
    b.edit("N" + std::to_string(i))
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

marks::MarkSet grid_mesh_marks(int width, int height, int link_latency) {
  marks::MarkSet m;
  const int nodes = width * height - 1;  // tile 0 is the CPU tile
  for (int i = 0; i < nodes; ++i) {
    std::string cls = "N" + std::to_string(i);
    int tile = i + 1;
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     ScalarValue(std::int64_t{tile % width}));
    m.set_class_mark(cls, marks::kTileY,
                     ScalarValue(std::int64_t{tile / width}));
  }
  m.set_domain_mark(marks::kMeshWidth,
                    ScalarValue(static_cast<std::int64_t>(width)));
  m.set_domain_mark(marks::kMeshHeight,
                    ScalarValue(static_cast<std::int64_t>(height)));
  m.set_domain_mark(marks::kLinkLatency,
                    ScalarValue(static_cast<std::int64_t>(link_latency)));
  return m;
}

fault::FaultSpec grid_noisy_spec() {
  fault::FaultSpec s;
  s.seed = 7;
  s.flit_drop = 0.05;
  s.flit_corrupt = 0.05;
  return s;
}

/// WindowedRun plus the fault layer's own statistics rendered to text.
struct GridRun {
  WindowedRun w;
  std::string fault_stats;
  bool window_path = false;  ///< phase A ran (run_window, not one_cycle)
};

GridRun run_grid_mesh(MappedFixture& fx, int nodes, int threads,
                         int window, bool faults) {
  fault::Plan plan(faults ? grid_noisy_spec() : fault::FaultSpec{});
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  cfg.fault = faults ? &plan : nullptr;
  CoSimulation cosim(*fx.system, cfg);
  std::vector<InstanceHandle> h;
  for (int i = 0; i < nodes; ++i) h.push_back(cosim.create("N" + std::to_string(i)));
  for (int i = 0; i < nodes; ++i) {
    // peer is the third declared attribute (acc, pings, peer).
    cosim.executor_of(h[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(h[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(h[static_cast<std::size_t>((i + 1) % nodes)]));
    cosim.inject(h[static_cast<std::size_t>(i)], "tick");
  }
  hwsim::VcdWriter vcd(cosim.hw_sim());
  cosim.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
  cosim.run_cycles(61);
  cosim.run_cycles(36);

  GridRun r;
  for (const auto& hw : cosim.hw_domains()) {
    r.w.base.hw_traces += hw->executor().trace().to_string();
  }
  r.w.base.sw_trace = cosim.sw_executor().trace().to_string();
  r.w.base.vcd = vcd.render();
  r.w.base.cycles = cosim.cycles();
  r.w.base.sim_stats = cosim.hw_sim().stats();
  const auto* acc = fx.domain->find_class("N0")->find_attribute("acc");
  for (int i = 0; i < nodes; ++i) {
    r.w.base.attrs.push_back(std::get<std::int64_t>(
        cosim.executor_of(h[static_cast<std::size_t>(i)].cls)
            .database()
            .get_attr(h[static_cast<std::size_t>(i)], acc->id)));
  }
  r.w.interconnect = cosim.fabric().stats().to_table();
  const auto& fs = cosim.fabric().fault_stats();
  r.fault_stats = std::to_string(fs.flits_dropped) + "/" +
                  std::to_string(fs.flits_corrupted) + "/" +
                  std::to_string(fs.link_down_events) + "/" +
                  std::to_string(fs.crc_rejects) + "/" +
                  std::to_string(fs.retransmissions) + "/" +
                  std::to_string(fs.frames_lost);
  r.w.lookahead = cosim.lookahead();
  r.w.window = cosim.window();
  r.window_path = cosim.phase_seconds().phase_a > 0;
  return r;
}

void expect_grid_identical(const GridRun& par, const GridRun& serial) {
  EXPECT_EQ(par.w.base.hw_traces, serial.w.base.hw_traces);
  EXPECT_EQ(par.w.base.sw_trace, serial.w.base.sw_trace);
  EXPECT_EQ(par.w.base.vcd, serial.w.base.vcd);
  EXPECT_EQ(par.w.base.cycles, serial.w.base.cycles);
  EXPECT_EQ(par.w.base.sim_stats.delta_cycles,
            serial.w.base.sim_stats.delta_cycles);
  EXPECT_EQ(par.w.base.sim_stats.process_activations,
            serial.w.base.sim_stats.process_activations);
  EXPECT_EQ(par.w.base.sim_stats.wire_commits,
            serial.w.base.sim_stats.wire_commits);
  EXPECT_EQ(par.w.base.attrs, serial.w.base.attrs);
  EXPECT_EQ(par.w.interconnect, serial.w.interconnect);
  EXPECT_EQ(par.fault_stats, serial.fault_stats);
}

void run_windowed_grid(int width, int height, int link_latency) {
  const int nodes = width * height - 1;
  MappedFixture fx(make_grid_domain(nodes),
                   grid_mesh_marks(width, height, link_latency));
  for (bool faults : {false, true}) {
    GridRun serial = run_grid_mesh(fx, nodes, /*threads=*/1, /*window=*/1,
                                      faults);
    EXPECT_EQ(serial.w.lookahead, link_latency);
    EXPECT_FALSE(serial.window_path);
    EXPECT_FALSE(serial.w.base.hw_traces.empty());
    for (int threads : {1, 2, 8}) {
      for (int window : {1, 2, 0}) {
        if (threads == 1 && window == 1) continue;
        SCOPED_TRACE("mesh=" + std::to_string(width) + "x" +
                     std::to_string(height) +
                     " threads=" + std::to_string(threads) +
                     " window=" + std::to_string(window) +
                     " faults=" + (faults ? "on" : "off"));
        GridRun par = run_grid_mesh(fx, nodes, threads, window, faults);
        EXPECT_EQ(par.w.window,
                  window == 0 ? link_latency : std::min(window, link_latency));
        EXPECT_EQ(par.window_path, threads > 1 || par.w.window > 1);
        expect_grid_identical(par, serial);
      }
    }
  }
}

TEST(CoSimWindowed, Mesh2x2ByteIdenticalGrid) { run_windowed_grid(2, 2, 4); }

TEST(CoSimWindowed, Mesh8x8ByteIdenticalGrid) { run_windowed_grid(8, 8, 4); }

TEST(CoSimWindowed, Mesh8x8LinkLatency1ByteIdenticalGrid) {
  run_windowed_grid(8, 8, 1);
}

}  // namespace
}  // namespace xtsoc::cosim
