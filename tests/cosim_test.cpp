#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <tuple>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/cosim/bus.hpp"
#include "xtsoc/cosim/codec.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/hwsim/vcd.hpp"
#include "xtsoc/snap/snapshot.hpp"

namespace xtsoc::cosim {
namespace {

using runtime::InstanceHandle;
using runtime::Value;
using testing::MappedFixture;
using testing::Observed;
using testing::Recorder;
using testing::expect_identical;
using testing::fanout_mesh_marks;
using testing::make_fanout_domain;
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
  std::vector<Frame> due;
  bus.pop_due_to_hw(12, due);
  EXPECT_TRUE(due.empty());
  bus.pop_due_to_hw(13, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].opcode, 7u);
  EXPECT_TRUE(bus.empty());
}

TEST(Bus, ExtraDelayAddsToLatency) {
  Bus bus(1);
  bus.connect("x", "x");
  bus.push_to_sw(Frame{1, {}, 0}, 0, /*extra_delay=*/5);
  std::vector<Frame> due;
  bus.pop_due_to_sw(5, due);
  EXPECT_TRUE(due.empty());
  bus.pop_due_to_sw(6, due);
  EXPECT_EQ(due.size(), 1u);
}

TEST(Bus, OrderPreservedAmongDue) {
  Bus bus(0);
  bus.connect("x", "x");
  bus.push_to_hw(Frame{1, {}, 0}, 0);
  bus.push_to_hw(Frame{2, {}, 0}, 0);
  std::vector<Frame> due;
  bus.pop_due_to_hw(0, due);
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
  // Each class has a pool of its own (Producer's is the default 64).
  for (int i = 0; i < 10; ++i) cosim.create("Producer");
}

TEST(CoSim, SoftwarePoolCapacityEnforced) {
  // The emitted C sizes every class's pool by maxInstances and aborts when
  // it is full, so the co-simulation refuses the same create, in the same
  // words.
  xtuml::DomainBuilder b("Ctl");
  b.cls("Controller").attr("mode", xtuml::DataType::kInt);
  marks::MarkSet m;
  m.set_class_mark("Controller", marks::kMaxInstances,
                   ScalarValue(std::int64_t{1}));
  MappedFixture fx(b.take(), std::move(m));
  ASSERT_FALSE(fx.system->partition().is_hardware(
      fx.domain->find_class_id("Controller")));
  CoSimulation cosim(*fx.system);
  cosim.create("Controller");
  try {
    cosim.create("Controller");
    FAIL() << "a second Controller fit a pool of one";
  } catch (const runtime::ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "pool of 'Controller' is full (1 instances; raise the "
                 "maxInstances mark)");
  }
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

// --- the observation oracle itself ----------------------------------------------

// One extra injected event must fail the oracle, and the failure must name
// the observable and show its first differing line. The extra "done" is
// ignored in Waiting and runs alone in its cycle, so it adds two software
// trace lines (its send and its ignored dispatch) and changes nothing else.
TEST(Oracle, ExtraEventFailsWithTheFirstDifferingLine) {
  // The run, the 1-based line where the runs part, and the line there.
  auto run_once = [](bool extra) {
    PipelineCosim p(hw_consumer_marks(2));
    Recorder rec(p.cosim);
    p.cosim.inject(p.producer, "kick");
    p.cosim.run_cycles(200);
    const std::vector<runtime::TraceEvent>& events =
        p.cosim.sw_executor().trace().events();
    const std::size_t at = events.size();
    if (extra) p.cosim.inject(p.producer, "done", {Value(true)});
    p.cosim.run_cycles(1);
    p.cosim.inject(p.producer, "kick");
    p.cosim.run_cycles(200);
    return std::tuple{rec.take(), at + 1, events.at(at).to_string()};
  };
  auto [a, line, a_line] = run_once(false);
  auto [b, b_at, b_line] = run_once(true);
  ASSERT_EQ(b_at, line);
  EXPECT_NE(b_line.find("] send "), std::string::npos) << b_line;
  const std::string want = "extra event: sw_trace differs at line " +
                           std::to_string(line) + "\n  a: " + a_line +
                           "\n  b: " + b_line;
  EXPECT_NONFATAL_FAILURE(expect_identical(a, b, "extra event"), want);
}

// --- parallel-kernel determinism at the cosim level ----------------------------
//
// CoSimConfig::threads must leave every observable byte unchanged (see
// observe.hpp). One bus-mode workload and one multi-domain mesh workload,
// each diffed at threads = 1/2/8.

TEST(CoSimParallel, BusPipelineByteIdenticalAcrossThreadCounts) {
  auto run_once = [](int threads) {
    CoSimConfig cfg;
    cfg.threads = threads;
    PipelineCosim p(hw_consumer_marks(2), cfg);
    Recorder rec(p.cosim);
    for (int i = 0; i < 4; ++i) {
      p.cosim.inject(p.producer, "kick", {}, static_cast<std::uint64_t>(i));
      p.cosim.run(2000);
    }
    return rec.take();
  };

  Observed serial = run_once(1);
  EXPECT_FALSE(serial.hw_traces.empty());
  for (int threads : {2, 8}) {
    expect_identical(run_once(threads), serial,
                     "threads=" + std::to_string(threads));
  }
}

/// Boot the fanout population, kick it three times (`run` drives each
/// kick), check the totals and capture the run.
Observed run_fanout(MappedFixture& fx, CoSimulation& cosim,
                    const std::function<void()>& run) {
  const testing::FanoutHandles fan = testing::boot_fanout(cosim);
  EXPECT_EQ(cosim.hw_domains().size(), 3u);
  Recorder rec(cosim);
  for (int i = 0; i < 3; ++i) {
    cosim.inject(fan.boss, "go");
    run();
  }
  auto attr_of = [&](const InstanceHandle& h, const char* cls,
                     const char* name) {
    const auto* a = fx.domain->find_class(cls)->find_attribute(name);
    return std::get<std::int64_t>(
        cosim.executor_of(h.cls).database().get_attr(h, a->id));
  };
  EXPECT_EQ(attr_of(fan.boss, "Boss", "acks"), 9);  // 3 kicks x 3 workers
  EXPECT_EQ(attr_of(fan.w0, "W0", "sum") + attr_of(fan.w1, "W1", "sum") +
                attr_of(fan.w2, "W2", "sum"),
            18);  // 3 x (1+2+3)
  return rec.take();
}

TEST(CoSimParallel, MeshFanoutByteIdenticalAcrossThreadCounts) {
  auto run_once = [](int threads) {
    MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
    CoSimConfig cfg;
    cfg.threads = threads;
    CoSimulation cosim(*fx.system, cfg);
    return run_fanout(fx, cosim, [&] { cosim.run(5000); });
  };

  Observed serial = run_once(1);
  for (int threads : {2, 8}) {
    expect_identical(run_once(threads), serial,
                     "threads=" + std::to_string(threads));
  }
}

// --- windowed (conservative-lookahead) execution -------------------------------
//
// CoSimConfig::window must also leave every observable byte unchanged. The
// runs below diff the whole contract (see observe.hpp) across a
// (window x threads) grid against the serial one-cycle-window baseline
// (window=1, threads=1). run_cycles() is used so every configuration
// executes the exact same number of cycles, including partial tail windows
// (97 and 61 are deliberately not multiples of any window size).

TEST(CoSimWindowed, BusPipelineByteIdenticalAcrossWindowsAndThreads) {
  // busLatency 0 has lookahead 1: every window clamps to one cycle, and a
  // frame lands the cycle after it was sent at every thread count.
  auto run_once = [](int latency, int window, int threads) {
    CoSimConfig cfg;
    cfg.window = window;
    cfg.threads = threads;
    PipelineCosim p(hw_consumer_marks(latency), cfg);
    const int lookahead = std::max(latency, 1);
    EXPECT_EQ(p.cosim.lookahead(), lookahead);
    EXPECT_EQ(p.cosim.window(),
              window == 0 ? lookahead : std::min(window, lookahead));
    Recorder rec(p.cosim);
    for (int i = 0; i < 4; ++i) {
      p.cosim.inject(p.producer, "kick", {}, static_cast<std::uint64_t>(i));
      p.cosim.run_cycles(97);
    }
    p.cosim.run_cycles(61);
    EXPECT_EQ(p.attr(p.producer, "Producer", "sent"), 4);
    EXPECT_EQ(p.attr(p.producer, "Producer", "acks"), 4);
    EXPECT_EQ(p.attr(p.consumer, "Consumer", "total"), 10);
    return rec.take();
  };

  for (int latency : {8, 0}) {
    Observed serial = run_once(latency, /*window=*/1, /*threads=*/1);
    EXPECT_FALSE(serial.hw_traces.empty());
    for (int window : {0, 2, 8}) {
      for (int threads : {1, 2, 8}) {
        expect_identical(run_once(latency, window, threads), serial,
                         "busLatency=" + std::to_string(latency) +
                             " window=" + std::to_string(window) +
                             " threads=" + std::to_string(threads));
      }
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
    EXPECT_EQ(cosim.lookahead(), 4);
    EXPECT_EQ(cosim.window(), window == 0 ? 4 : window);
    return run_fanout(fx, cosim, [&] { cosim.run_cycles(97); });
  };

  Observed serial = run_once(/*window=*/1, /*threads=*/1);
  for (int window : {0, 2}) {
    for (int threads : {1, 2, 8}) {
      expect_identical(run_once(window, threads), serial,
                       "window=" + std::to_string(window) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(CoSimWindowed, ZeroLatencyBusForcesLockstep) {
  // A zero-latency bus means a frame sent at cycle c is due at c itself
  // and lands at c + 1, at the next window boundary — lookahead 1, so no
  // window larger than 1 is sound and the requested window must be
  // ignored: the run uses one-cycle windows.
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
  EXPECT_EQ(window_for(1), 1);   // explicit one-cycle windows
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
// and require every observable byte (see observe.hpp) and the checkpoint
// bytes to equal the serial one-cycle-window baseline. 97 total cycles in
// chunks of 61+36, so no chunk is a multiple of any window size. At
// linkLatency 1 every window clamps to 1, so the cells differ only in
// threads.

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

/// One grid cell's observables and the snap::save bytes at its end.
struct GridCell {
  Observed observed;
  std::vector<std::uint8_t> checkpoint;
};

/// One grid cell: boot the ring of `nodes` self-ticking FSMs, run 61 + 36
/// cycles, capture it and save a checkpoint. Also checks the window the
/// cosim chose and that phase A ran.
GridCell run_grid_mesh(MappedFixture& fx, int nodes, int link_latency,
                       int threads, int window, bool faults) {
  fault::Plan plan(faults ? grid_noisy_spec() : fault::FaultSpec{});
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  cfg.fault = faults ? &plan : nullptr;
  CoSimulation cosim(*fx.system, cfg);
  EXPECT_EQ(cosim.lookahead(), link_latency);
  EXPECT_EQ(cosim.window(),
            window == 0 ? link_latency : std::min(window, link_latency));
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
  Recorder rec(cosim);
  cosim.run_cycles(61);
  cosim.run_cycles(36);
  EXPECT_GT(cosim.phase_seconds().phase_a, 0);  // every run has a phase A
  return {rec.take(), snap::save(cosim)};
}

void run_windowed_grid(int width, int height, int link_latency) {
  const int nodes = width * height - 1;
  MappedFixture fx(make_grid_domain(nodes),
                   grid_mesh_marks(width, height, link_latency));
  for (bool faults : {false, true}) {
    const GridCell serial = run_grid_mesh(fx, nodes, link_latency,
                                          /*threads=*/1, /*window=*/1, faults);
    EXPECT_FALSE(serial.observed.hw_traces.empty());
    for (int threads : {1, 2, 8}) {
      for (int window : {1, 2, 0}) {
        if (threads == 1 && window == 1) continue;
        const std::string what =
            "mesh=" + std::to_string(width) + "x" + std::to_string(height) +
            " threads=" + std::to_string(threads) +
            " window=" + std::to_string(window) +
            " faults=" + (faults ? "on" : "off");
        SCOPED_TRACE(what);
        const GridCell cell = run_grid_mesh(fx, nodes, link_latency, threads,
                                            window, faults);
        expect_identical(cell.observed, serial.observed, what);
        EXPECT_TRUE(cell.checkpoint == serial.checkpoint)
            << what << ": checkpoint bytes differ (" << cell.checkpoint.size()
            << " vs " << serial.checkpoint.size() << " bytes)";
      }
    }
  }
}

TEST(CoSimWindowed, Mesh2x2ByteIdenticalGrid) { run_windowed_grid(2, 2, 4); }

TEST(CoSimWindowed, Mesh8x8ByteIdenticalGrid) { run_windowed_grid(8, 8, 4); }

TEST(CoSimWindowed, Mesh8x8LinkLatency1ByteIdenticalGrid) {
  run_windowed_grid(8, 8, 1);
}

// --- quiet domains -------------------------------------------------------------
//
// A hardware domain that ends a window quiet is skipped until a
// frame, an external create or inject wakes it (see hwdomain.hpp). The
// sparse mesh below keeps most domains quiet for many windows: one token
// at a time walks a ring of 14 nodes and dies after a few hops. Each cell
// runs four segments, waking domains between them in every way a quiet
// domain can wake:
//
//   1. a token of 5 hops: domains wake by frame, one after another;
//   2. CoSimulation::inject of `poke` into a quiet node (which sends a new
//      token) and CoSimulation::create of a second instance into another
//      quiet node, whose alive wire must move on the next edge;
//   3. a direct cs.executor_of(cls).inject of `arm` into the quiet alarm,
//      whose delayed self-generate fires 23 cycles (5+ windows) later and
//      wakes a node by frame;
//   4. another poke, into the node with clockDomain 3.
//
// The cell saves a snapshot after segment 3, while most domains are quiet,
// and continues both the original run and a restore of the snapshot into
// a fresh co-simulation. threads {1,2,8} x window {1,auto} must equal the
// serial one-cycle-window run byte for byte in every segment.

constexpr int kSparseNodes = 14;  // tiles 1..14; the alarm sits on tile 15

std::unique_ptr<xtuml::Domain> make_sparse_domain() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Sparse");
  for (int i = 0; i < kSparseNodes; ++i) b.cls("Node" + std::to_string(i));
  b.cls("Alarm");
  for (int i = 0; i < kSparseNodes; ++i) {
    b.edit("Node" + std::to_string(i))
        .attr("seen", DataType::kInt)
        .attr("pokes", DataType::kInt)
        .ref_attr("peer", "Node" + std::to_string((i + 1) % kSparseNodes))
        .event("tok", {{"h", DataType::kInt}})
        .event("poke")
        .state("Got",
               "self.seen = self.seen + 1;\n"
               "if (param.h > 0)\n"
               "  generate tok(h: param.h - 1) to self.peer;\n"
               "end if;")
        .state("Poked",
               "self.pokes = self.pokes + 1;\n"
               "generate tok(h: 3) to self.peer;")
        .transition("Got", "tok", "Got")
        .transition("Got", "poke", "Poked")
        .transition("Poked", "tok", "Got")
        .transition("Poked", "poke", "Poked");
  }
  b.edit("Alarm")
      .attr("rings", DataType::kInt)
      .ref_attr("target", "Node9")
      .event("arm")
      .event("ring")
      .state("Armed", "generate ring() to self delay 23;")
      .state("Rung",
             "self.rings = self.rings + 1;\n"
             "generate tok(h: 2) to self.target;")
      .transition("Armed", "arm", "Armed")
      .transition("Armed", "ring", "Rung")
      .transition("Rung", "arm", "Armed")
      .transition("Rung", "ring", "Rung");
  return b.take();
}

marks::MarkSet sparse_mesh_marks() {
  marks::MarkSet m;
  auto place = [&m](const std::string& cls, int tile) {
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX, ScalarValue(std::int64_t{tile % 4}));
    m.set_class_mark(cls, marks::kTileY, ScalarValue(std::int64_t{tile / 4}));
  };
  for (int i = 0; i < kSparseNodes; ++i) place("Node" + std::to_string(i), i + 1);
  place("Alarm", kSparseNodes + 1);
  m.set_class_mark("Node5", marks::kClockDomain, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
  return m;
}

/// One sparse-mesh cell: the segments up to the snapshot, then the last
/// segment run straight on and run again from a restore of the snapshot.
struct SparseRun {
  Observed head;      ///< segments 1-3
  Observed straight;  ///< segment 4, continuing the same co-simulation
  Observed restored;  ///< segment 4, from the snapshot in a fresh one
};

SparseRun run_sparse(MappedFixture& fx, int threads, int window) {
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  SparseRun out;
  CoSimulation cs(*fx.system, cfg);
  EXPECT_EQ(cs.window(), window == 0 ? 4 : window);
  std::vector<InstanceHandle> nodes;
  for (int i = 0; i < kSparseNodes; ++i) {
    nodes.push_back(cs.create("Node" + std::to_string(i)));
  }
  const InstanceHandle alarm = cs.create("Alarm");
  // peer is the third declared attribute (seen, pokes, peer); target the
  // alarm's second (rings, target).
  for (int i = 0; i < kSparseNodes; ++i) {
    cs.executor_of(nodes[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(nodes[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(nodes[static_cast<std::size_t>((i + 1) % kSparseNodes)]));
  }
  cs.executor_of(alarm.cls).database().set_attr(alarm, AttributeId(1),
                                                Value(nodes[9]));
  {
    Recorder rec(cs);
    cs.inject(nodes[0], "tok", {Value(std::int64_t{5})});
    cs.run_cycles(53);
    cs.inject(nodes[7], "poke");
    cs.create("Node11");
    cs.run_cycles(41);
    cs.executor_of(alarm.cls).inject(alarm, "arm");
    cs.run_cycles(67);
    out.head = rec.take();
  }
  const std::vector<std::uint8_t> bytes = snap::save(cs);
  auto last_segment = [](CoSimulation& c, const InstanceHandle& node5) {
    Recorder rec(c);
    c.inject(node5, "poke");
    c.run_cycles(59);
    return rec.take();
  };
  out.straight = last_segment(cs, nodes[5]);
  CoSimulation fresh(*fx.system, cfg);
  snap::restore(fresh, bytes.data(), bytes.size());
  out.restored = last_segment(fresh, nodes[5]);
  return out;
}

TEST(CoSimQuiet, SparseMeshByteIdenticalAcrossThreadsAndWindows) {
  MappedFixture fx(make_sparse_domain(), sparse_mesh_marks());
  const SparseRun serial = run_sparse(fx, /*threads=*/1, /*window=*/1);
  // The scenario reached every wake path: the second Node11 exists (class
  // 11, instance 1), the alarm (class 14) rang (event 1) and Node5 took
  // its poke (event 1).
  EXPECT_NE(serial.head.hw_traces.find("create <inst c11:1g0>"),
            std::string::npos);
  EXPECT_NE(serial.head.hw_traces.find("dispatch <inst c14:0g0> ev#1"),
            std::string::npos);
  EXPECT_NE(serial.straight.hw_traces.find("dispatch <inst c5:0g0> ev#1"),
            std::string::npos);
  expect_identical(serial.restored, serial.straight, "serial restore");
  for (int threads : {1, 2, 8}) {
    for (int window : {1, 0}) {
      if (threads == 1 && window == 1) continue;
      const std::string what = "threads=" + std::to_string(threads) +
                               " window=" + std::to_string(window);
      SCOPED_TRACE(what);
      const SparseRun run = run_sparse(fx, threads, window);
      expect_identical(run.head, serial.head, what + " segments 1-3");
      expect_identical(run.straight, serial.straight, what + " segment 4");
      expect_identical(run.restored, serial.straight,
                       what + " segment 4 after restore");
    }
  }
}

// --- golden pin ----------------------------------------------------------------
//
// Fingerprints recorded from the delta-cycle kernel, before it became a
// clocked wire file. Each cell runs one workload serially in one-cycle
// windows (threads 1, window 1) or in parallel (threads 2, window auto),
// samples a VCD of every wire after every cycle and saves a checkpoint at
// two cycles. The VCD, report().to_json(2) and both checkpoints' bytes
// must keep these exact FNV-1a values: they are what the kernel, the
// replay and the checkpoint writer are held to, independently of the grids
// that compare configurations with each other. The report echoes the
// configuration, so each one is pinned on its own. The report values were
// re-pinned when report() gained its "classes" section; without that
// section each report hashes to its earlier pin.

struct GoldenPin {
  std::uint64_t vcd, report, snap_a, snap_b;
};

bool operator==(const GoldenPin& a, const GoldenPin& b) {
  return a.vcd == b.vcd && a.report == b.report && a.snap_a == b.snap_a &&
         a.snap_b == b.snap_b;
}

std::ostream& operator<<(std::ostream& os, const GoldenPin& p) {
  return os << std::hex << "{0x" << p.vcd << "ull, 0x" << p.report
            << "ull, 0x" << p.snap_a << "ull, 0x" << p.snap_b << "ull}";
}

/// Runs `boot`, then `first` cycles, a checkpoint, `poke`, `second`
/// cycles and another checkpoint.
GoldenPin golden_run(const mapping::MappedSystem& sys, bool parallel,
                     const std::function<void(CoSimulation&)>& boot,
                     const std::function<void(CoSimulation&)>& poke,
                     std::uint64_t first, std::uint64_t second) {
  CoSimConfig cfg;
  cfg.threads = parallel ? 2 : 1;
  cfg.window = parallel ? 0 : 1;
  CoSimulation cs(sys, cfg);
  boot(cs);
  hwsim::VcdWriter vcd(cs.hw_sim());
  cs.set_cycle_hook([&vcd](std::uint64_t) { vcd.sample(); });
  auto bytes_hash = [](const std::vector<std::uint8_t>& b) {
    return testing::fnv1a(std::string(b.begin(), b.end()));
  };
  GoldenPin pin{};
  cs.run_cycles(first);
  pin.snap_a = bytes_hash(snap::save(cs));
  poke(cs);
  cs.run_cycles(second);
  pin.snap_b = bytes_hash(snap::save(cs));
  pin.vcd = testing::fnv1a(vcd.render());
  pin.report = testing::fnv1a(cs.report().to_json(2));
  return pin;
}

TEST(CoSimGolden, BusPipeline) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks(2));
  InstanceHandle producer;
  auto boot = [&producer](CoSimulation& cs) {
    InstanceHandle consumer = cs.create("Consumer");
    producer = cs.create_with("Producer", {{"sink", Value(consumer)}});
    cs.inject(producer, "kick");
  };
  auto poke = [&producer](CoSimulation& cs) {
    cs.inject(producer, "kick");
    cs.inject(producer, "kick", {}, 3);
  };
  EXPECT_EQ(golden_run(*fx.system, false, boot, poke, 9, 31),
            (GoldenPin{0x81e72cd71babf514ull, 0x13c9d33a793fcef0ull,
                       0xcc5a325cd382e069ull, 0xfe9bb8792f98f703ull}));
  EXPECT_EQ(golden_run(*fx.system, true, boot, poke, 9, 31),
            (GoldenPin{0x81e72cd71babf514ull, 0x6826eb934082e5c8ull,
                       0xcc5a325cd382e069ull, 0xfe9bb8792f98f703ull}));
}

TEST(CoSimGolden, MeshFanout2x2) {
  MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
  InstanceHandle boss;
  auto boot = [&boss](CoSimulation& cs) {
    boss = testing::boot_fanout(cs).boss;
    cs.inject(boss, "go");
  };
  auto poke = [&boss](CoSimulation& cs) { cs.inject(boss, "go"); };
  EXPECT_EQ(golden_run(*fx.system, false, boot, poke, 23, 57),
            (GoldenPin{0xe46806672487900dull, 0xfb7f7876674686e4ull,
                       0xb47913d0c4fbb97full, 0x5c72136df06de229ull}));
  EXPECT_EQ(golden_run(*fx.system, true, boot, poke, 23, 57),
            (GoldenPin{0xe46806672487900dull, 0xbd44ea6f8f0a0365ull,
                       0xb47913d0c4fbb97full, 0x5c72136df06de229ull}));
}

TEST(CoSimGolden, MeshRing8x8) {
  constexpr int kNodes = 63;
  MappedFixture fx(make_grid_domain(kNodes), grid_mesh_marks(8, 8, 4));
  std::vector<InstanceHandle> h;
  auto boot = [&h](CoSimulation& cs) {
    h.clear();
    for (int i = 0; i < kNodes; ++i) {
      h.push_back(cs.create("N" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < h.size(); ++i) {
      // peer is the third declared attribute (acc, pings, peer).
      cs.executor_of(h[i].cls).database().set_attr(
          h[i], AttributeId(2), Value(h[(i + 1) % h.size()]));
      cs.inject(h[i], "tick");
    }
  };
  auto poke = [&h](CoSimulation& cs) {
    cs.inject(h[40], "ping", {Value(std::int64_t{3})});
  };
  EXPECT_EQ(golden_run(*fx.system, false, boot, poke, 61, 36),
            (GoldenPin{0x70990d219365917dull, 0xe8db226a63664169ull,
                       0xcdb504e0b5468e24ull, 0xe82d611db94ba97eull}));
  EXPECT_EQ(golden_run(*fx.system, true, boot, poke, 61, 36),
            (GoldenPin{0x70990d219365917dull, 0xda570c40d95f170full,
                       0xcdb504e0b5468e24ull, 0xe82d611db94ba97eull}));
}

}  // namespace
}  // namespace xtsoc::cosim
