// xtsoc::obs — the observability layer.
//
// Two halves. The unit half covers the JSON machinery (JsonWriter,
// JsonValue) and the Registry (tracks, spans, Chrome trace export). The
// integration half runs real co-simulations and checks the layer's central
// contract: attaching a registry — even with tracing on — leaves every
// observable byte (executor traces, VCD, cycle counts, report(), the
// checkpoint) identical to a run with no registry, at every thread count
// and window size; and when enabled, the spans describe the run.
#include <gtest/gtest.h>

#include <sstream>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/obs/json.hpp"
#include "xtsoc/obs/registry.hpp"
#include "xtsoc/obs/snapshot.hpp"
#include "xtsoc/snap/snapshot.hpp"

namespace xtsoc::obs {
namespace {

// --- JsonWriter ---------------------------------------------------------------

TEST(JsonWriter, CompactObjectAndArray) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .key("b")
      .begin_array()
      .value(true)
      .null()
      .value("x\"y")
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[true,null,\"x\\\"y\"]}");
}

TEST(JsonWriter, PrettyPrinting) {
  JsonWriter w(/*indent=*/2);
  w.begin_object().field("a", 1).key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, EscapesControlCharactersAndSpecials) {
  EXPECT_EQ(json_escape("say \"hi\"\nback\\slash"),
            "say \\\"hi\\\"\\nback\\\\slash");
  EXPECT_EQ(json_escape(std::string_view("\x01\t", 2)), "\\u0001\\t");
}

TEST(JsonWriter, NumberFormatting) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  // Non-finite values are not valid JSON; they degrade to null.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

// --- JsonValue ----------------------------------------------------------------

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue v = JsonValue::object();
  v["zeta"] = 1;
  v["alpha"] = 2;
  v["zeta"] = 3;  // update in place, no reorder
  EXPECT_EQ(v.dump(), "{\"zeta\":3,\"alpha\":2}");
}

TEST(JsonValue, NullPromotesToObjectOrArray) {
  JsonValue v;
  v["key"] = "value";  // null -> object
  EXPECT_TRUE(v.is_object());
  JsonValue a;
  a.push_back(1);  // null -> array
  a.push_back("two");
  EXPECT_TRUE(a.is_array());
  EXPECT_EQ(a.dump(), "[1,\"two\"]");
}

TEST(JsonValue, NestedDumpMatchesWriter) {
  JsonValue v = JsonValue::object();
  v["run"] = JsonValue::object();
  v["run"]["cycles"] = std::uint64_t{64};
  v["list"].push_back(JsonValue::object());
  EXPECT_EQ(v.dump(), "{\"run\":{\"cycles\":64},\"list\":[{}]}");
  EXPECT_EQ(v.at("run").at("cycles").as_uint(), 64u);
}

// --- Registry -----------------------------------------------------------------

TEST(Registry, TracksFindOrCreate) {
  Registry reg;
  TrackId t1 = reg.track("kernel");
  TrackId t2 = reg.track("noc");
  EXPECT_TRUE(t1.is_valid());
  EXPECT_NE(t1.value, t2.value);
  EXPECT_EQ(reg.track("kernel").value, t1.value);
  EXPECT_EQ(reg.track_name(t2), "noc");
  EXPECT_EQ(reg.track_count(), 2u);
}

TEST(Registry, EventCapacityDropsAreCounted) {
  Registry reg;
  TrackId t = reg.track("t");
  reg.set_event_capacity(2);
  reg.record_span(t, "a", 0, 10);
  reg.record_span(t, "b", 10, 20);
  reg.record_span(t, "c", 20, 30);
  EXPECT_EQ(reg.event_count(), 2u);
  EXPECT_EQ(reg.dropped_events(), 1u);
}

TEST(Registry, ScopedSpanRecordsOnlyWhenTracing) {
  Registry reg;
  TrackId t = reg.track("t");
  {
    ScopedSpan off(&reg, t, "ignored");
    EXPECT_FALSE(off.active());
  }
  EXPECT_EQ(reg.event_count(), 0u);
  reg.enable_tracing();
  {
    ScopedSpan outer(&reg, t, "outer");
    EXPECT_TRUE(outer.active());
    ScopedSpan inner(&reg, t, "inner");
  }
  EXPECT_EQ(reg.event_count(), 2u);
  // Events are sorted by start time at export: outer opened first.
  std::string j = reg.chrome_trace();
  EXPECT_LT(j.find("\"name\":\"outer\""), j.find("\"name\":\"inner\""));
}

TEST(Registry, ChromeTraceNamesEveryTrackEvenWithoutEvents) {
  Registry reg;
  reg.track("busy");
  reg.track("idle");  // never receives an event
  reg.enable_tracing();
  reg.record_span(reg.track("busy"), "work", 1000, 2000, /*cycle=*/7);
  reg.record_instant(reg.track("busy"), "mark", 1500);
  reg.record_value(reg.track("busy"), "depth", 1500, 3.0);
  std::string j = reg.chrome_trace();
  EXPECT_NE(j.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"busy\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"idle\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("\"cycle\":7"), std::string::npos);
  EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
  // Spans are microseconds in the viewer: 1000 ns = 1 us.
  EXPECT_NE(j.find("\"ts\":1,"), std::string::npos);
}

}  // namespace
}  // namespace xtsoc::obs

// --- integration: obs attached to a real co-simulation --------------------------

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

marks::MarkSet hw_consumer_marks(int bus_latency) {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.set_domain_mark(marks::kBusLatency,
                    ScalarValue(static_cast<std::int64_t>(bus_latency)));
  return m;
}

/// Every observable byte of one pipeline run (see observe.hpp), and the
/// checkpoint saved at its end.
struct PipelineRun {
  Observed observed;
  std::vector<std::uint8_t> checkpoint;
};

/// A registry attached to the run (and passed to snap::save) must change
/// none of these bytes.
void expect_same_run(const PipelineRun& a, const PipelineRun& b,
                     const std::string& what) {
  expect_identical(a.observed, b.observed, what);
  EXPECT_TRUE(a.checkpoint == b.checkpoint) << what << ": checkpoint differs";
}

PipelineRun run_pipeline(int threads, int window, obs::Registry* reg) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks(4));
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  cfg.obs = reg;
  CoSimulation cosim(*fx.system, cfg);
  auto consumer = cosim.create("Consumer");
  auto producer = cosim.create_with("Producer", {{"sink", Value(consumer)}});
  Recorder rec(cosim);
  for (int i = 0; i < 4; ++i) {
    cosim.inject(producer, "kick", {}, static_cast<std::uint64_t>(i));
    cosim.run(2000);
  }
  return {rec.take(), snap::save(cosim, nullptr, reg)};
}

// The central contract: a registry — absent, attached, or attached with
// tracing on — never perturbs simulation output, at any thread count.
TEST(ObsCosim, RegistryNeverPerturbsSimulationAcrossThreadCounts) {
  const PipelineRun baseline = run_pipeline(1, 0, nullptr);
  ASSERT_FALSE(baseline.observed.hw_traces.empty());
  for (int threads : {1, 2, 8}) {
    const std::string at = "threads=" + std::to_string(threads);
    expect_same_run(run_pipeline(threads, 0, nullptr), baseline,
                    "no registry, " + at);

    obs::Registry quiet;
    expect_same_run(run_pipeline(threads, 0, &quiet), baseline,
                    "registry attached, " + at);
    EXPECT_EQ(quiet.event_count(), 0u);

    obs::Registry tracing;
    tracing.enable_tracing();
    expect_same_run(run_pipeline(threads, 0, &tracing), baseline,
                    "tracing on, " + at);
    EXPECT_GT(tracing.event_count(), 0u);
    // The checkpoint is the one span on the "snap" track.
    EXPECT_NE(tracing.chrome_trace().find("\"name\":\"save\""),
              std::string::npos);
  }
}

TEST(ObsCosim, RegistryNeverPerturbsSimulationAcrossWindowSizes) {
  // run() may pad up to window-1 idle cycles past quiescence, so different
  // window sizes are not comparable to each other — the contract under test
  // is registry vs no-registry at the SAME window size.
  for (int window : {1, 2, 4}) {
    const std::string at = "window=" + std::to_string(window);
    const PipelineRun baseline = run_pipeline(2, window, nullptr);
    obs::Registry quiet;
    expect_same_run(run_pipeline(2, window, &quiet), baseline,
                    "registry attached, " + at);
    obs::Registry tracing;
    tracing.enable_tracing();
    expect_same_run(run_pipeline(2, window, &tracing), baseline,
                    "tracing on, " + at);
  }
}

TEST(ObsCosim, MeshRunProducesAllTracksAndNocCounters) {
  obs::Registry reg;
  reg.enable_tracing();
  MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
  CoSimConfig cfg;
  cfg.obs = &reg;
  CoSimulation cosim(*fx.system, cfg);
  cosim.inject(testing::boot_fanout(cosim).boss, "go");
  cosim.run(5000);

  // The acceptance shape: >= 4 distinct tracks, one per layer.
  std::string j = reg.chrome_trace();
  for (const char* track : {"cosim", "kernel", "noc", "executor/hw0",
                            "executor/hw1", "executor/hw2", "executor/sw"}) {
    EXPECT_NE(j.find("\"name\":\"" + std::string(track) + "\""),
              std::string::npos)
        << track;
  }
  EXPECT_GE(reg.track_count(), 4u);
  EXPECT_GT(cosim.fabric().stats().frames_delivered, 0u);

  // Span nesting: per-window spans on the master track with phase B
  // inside them, kernel settles inside phase B; all present in the
  // exported trace.
  EXPECT_NE(j.find("\"name\":\"window\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"phaseB\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"settle\""), std::string::npos);
}

TEST(ObsCosim, ReportCoversRunSimInterconnectAndDomains) {
  // Bus mode, no registry: report works without obs.
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks(2));
  CoSimulation cosim(*fx.system, {});
  auto consumer = cosim.create("Consumer");
  auto producer = cosim.create_with("Producer", {{"sink", Value(consumer)}});
  cosim.inject(producer, "kick");
  cosim.run(2000);

  obs::Snapshot snap = cosim.report();
  EXPECT_EQ(snap.at("run").at("cycles").as_uint(), cosim.cycles());
  EXPECT_EQ(snap.at("run").at("interconnect").as_string(), "bus");
  EXPECT_EQ(snap.at("sim").at("delta_cycles").as_uint(),
            cosim.hw_sim().stats().delta_cycles);
  EXPECT_EQ(snap.at("interconnect").at("kind").as_string(), "bus");
  EXPECT_GT(snap.at("interconnect").at("frames_to_hw").as_uint(), 0u);
  ASSERT_EQ(snap.at("domains").size(), 2u);  // hw0 + sw
  EXPECT_EQ(snap.at("domains").at(0).at("name").as_string(), "hw0");
  EXPECT_EQ(snap.at("domains").at(1).at("name").as_string(), "sw");
  EXPECT_EQ(snap.find("counters"), nullptr);

  // The document round-trips through the one JSON path.
  std::string doc = snap.to_json(2);
  EXPECT_NE(doc.find("\"run\": {"), std::string::npos);
  std::ostringstream os;
  snap.write(os);
  EXPECT_EQ(os.str().back(), '\n');
}

TEST(ObsCosim, ReportOnMeshIncludesFabricSectionAndCounters) {
  obs::Registry reg;
  MappedFixture fx(make_fanout_domain(), fanout_mesh_marks());
  CoSimConfig cfg;
  cfg.obs = &reg;
  CoSimulation cosim(*fx.system, cfg);
  cosim.inject(testing::boot_fanout(cosim).boss, "go");
  cosim.run(5000);

  obs::Snapshot snap = cosim.report();
  EXPECT_EQ(snap.at("run").at("interconnect").as_string(), "noc");
  EXPECT_EQ(snap.at("interconnect").at("kind").as_string(), "noc");
  EXPECT_EQ(snap.at("interconnect").at("mesh").at("width").as_int(), 2);
  EXPECT_EQ(snap.at("interconnect").at("routers").size(), 4u);
  EXPECT_GT(snap.at("interconnect").at("frames_delivered").as_uint(), 0u);
  ASSERT_EQ(snap.at("domains").size(), 4u);  // hw0..hw2 + sw
}

TEST(ObsCosim, ReportAgreesWithComponentStats) {
  MappedFixture fx(make_pipeline_domain(), hw_consumer_marks(2));
  CoSimulation cosim(*fx.system, {});
  auto consumer = cosim.create("Consumer");
  auto producer = cosim.create_with("Producer", {{"sink", Value(consumer)}});
  cosim.inject(producer, "kick");
  cosim.run(2000);
  obs::Snapshot snap = cosim.report();
  EXPECT_EQ(snap.at("sim").at("delta_cycles").as_uint(),
            cosim.hw_sim().stats().delta_cycles);
  EXPECT_EQ(snap.at("interconnect").at("frames_to_hw").as_uint(),
            cosim.bus().stats().frames_to_hw);
}

}  // namespace
}  // namespace xtsoc::cosim
