// Multi-domain systems and bridges: the "integration problem" of the
// paper's reference [2] (MDA Distilled), executable.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "observe.hpp"
#include "xtsoc/bridge/bridge.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/snap/io.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::bridge {
namespace {

using runtime::ModelError;
using runtime::Value;
using xtuml::DataType;
using xtuml::DomainBuilder;

/// Application domain: a Thermostat that asks an (external) heater service
/// to heat, via the HeaterProxy. The proxy is a pure external entity: no
/// state machine, just events other classes may signal.
std::unique_ptr<xtuml::Domain> make_app_domain() {
  DomainBuilder b("App");
  b.cls("HeaterProxy").event("heat_request", {{"watts", DataType::kInt}});
  b.cls("Thermostat")
      .attr("setpoint", DataType::kInt, xtuml::ScalarValue(std::int64_t{21}))
      .attr("confirmed", DataType::kInt)
      .ref_attr("heater", "HeaterProxy")
      .event("too_cold", {{"delta", DataType::kInt}})
      .event("heating_started")
      .state("Watching")
      .state("Requesting",
             "generate heat_request(watts: 100 * param.delta) to self.heater;")
      .state("Heating", "self.confirmed = self.confirmed + 1;")
      .transition("Watching", "too_cold", "Requesting")
      .transition("Requesting", "heating_started", "Heating")
      .transition("Heating", "too_cold", "Requesting");
  return b.take();
}

/// Device domain: the heater driver. Its AppProxy stands in for whoever
/// asked (the application), to be notified when the element is on.
std::unique_ptr<xtuml::Domain> make_device_domain() {
  DomainBuilder b("Device");
  b.cls("AppProxy").event("started");
  b.cls("Heater")
      .attr("watts", DataType::kInt)
      .attr("activations", DataType::kInt)
      .ref_attr("client", "AppProxy")
      .event("on", {{"watts", DataType::kInt}})
      .state("Off")
      .state("On",
             "self.watts = param.watts;\n"
             "self.activations = self.activations + 1;\n"
             "generate started() to self.client;")
      .transition("Off", "on", "On")
      .transition("On", "on", "On");
  return b.take();
}

struct TwoDomains {
  std::unique_ptr<xtuml::Domain> app_d;
  std::unique_ptr<xtuml::Domain> dev_d;
  std::unique_ptr<oal::CompiledDomain> app;
  std::unique_ptr<oal::CompiledDomain> dev;
  SystemDef def;

  TwoDomains() {
    DiagnosticSink sink;
    app_d = make_app_domain();
    dev_d = make_device_domain();
    app = oal::compile_domain(*app_d, sink);
    dev = oal::compile_domain(*dev_d, sink);
    if (!app || !dev) throw std::runtime_error(sink.to_string());
    def.add_domain(*app);
    def.add_domain(*dev);
    def.add_wire({"App", "HeaterProxy", "heat_request",
                  "Device", "Heater", "on"});
    def.add_wire({"Device", "AppProxy", "started",
                  "App", "Thermostat", "heating_started"});
  }
};

TEST(SystemDef, ValidatesGoodWiring) {
  TwoDomains s;
  DiagnosticSink sink;
  EXPECT_TRUE(s.def.validate(sink)) << sink.to_string();
}

TEST(SystemDef, RejectsUnknownNames) {
  TwoDomains s;
  DiagnosticSink sink;
  SystemDef bad = s.def;
  bad.add_wire({"Nope", "X", "e", "Device", "Heater", "on"});
  EXPECT_FALSE(bad.validate(sink));

  sink.clear();
  SystemDef bad2 = s.def;
  bad2.add_wire({"App", "NoClass", "e", "Device", "Heater", "on"});
  EXPECT_FALSE(bad2.validate(sink));

  sink.clear();
  SystemDef bad3 = s.def;
  bad3.add_wire({"App", "HeaterProxy", "no_event", "Device", "Heater", "on"});
  EXPECT_FALSE(bad3.validate(sink));
}

TEST(SystemDef, RejectsSignatureMismatch) {
  DiagnosticSink sink;
  DomainBuilder a("A");
  a.cls("P").event("e", {{"x", DataType::kString}});
  DomainBuilder b("B");
  b.cls("T").event("f", {{"x", DataType::kInt}});
  auto ca = oal::compile_domain(a.domain(), sink);
  auto cb = oal::compile_domain(b.domain(), sink);
  SystemDef def;
  def.add_domain(*ca);
  def.add_domain(*cb);
  def.add_wire({"A", "P", "e", "B", "T", "f"});
  EXPECT_FALSE(def.validate(sink));
  EXPECT_NE(sink.to_string().find("bridge.wire.type"), std::string::npos);
}

TEST(SystemDef, RejectsDuplicateWireSource) {
  TwoDomains s;
  DiagnosticSink sink;
  SystemDef dup = s.def;
  dup.add_wire({"App", "HeaterProxy", "heat_request",
                "Device", "Heater", "on"});
  EXPECT_FALSE(dup.validate(sink));
}

TEST(SystemDef, IntToRealWideningAllowed) {
  DiagnosticSink sink;
  DomainBuilder a("A");
  a.cls("P").event("e", {{"x", DataType::kInt}});
  DomainBuilder b("B");
  b.cls("T").event("f", {{"x", DataType::kReal}});
  auto ca = oal::compile_domain(a.domain(), sink);
  auto cb = oal::compile_domain(b.domain(), sink);
  SystemDef def;
  def.add_domain(*ca);
  def.add_domain(*cb);
  def.add_wire({"A", "P", "e", "B", "T", "f"});
  EXPECT_TRUE(def.validate(sink)) << sink.to_string();
}

TEST(SystemExecutor, RoundTripAcrossDomains) {
  TwoDomains s;
  SystemExecutor sys(s.def);

  // Populate both domains and bind the proxies.
  auto& app = sys.domain("App");
  auto& dev = sys.domain("Device");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  auto app_proxy = dev.create("AppProxy");
  auto heater = dev.create_with("Heater", {{"client", Value(app_proxy)}});
  sys.bind(proxy, "App", heater, "Device");
  sys.bind(app_proxy, "Device", thermo, "App");

  app.inject(thermo, "too_cold", {Value(std::int64_t{3})});
  std::size_t dispatched = sys.run_all();
  EXPECT_TRUE(sys.drained());
  EXPECT_GE(dispatched, 3u);
  EXPECT_EQ(sys.forwarded_count(), 2u);  // request out, confirmation back

  // Device side saw the request with the mapped payload.
  const auto& dev_cls = *s.dev_d->find_class("Heater");
  EXPECT_EQ(std::get<std::int64_t>(dev.database().get_attr(
                heater, dev_cls.find_attribute("watts")->id)),
            300);
  // App side got the confirmation.
  const auto& app_cls = *s.app_d->find_class("Thermostat");
  EXPECT_EQ(std::get<std::int64_t>(app.database().get_attr(
                thermo, app_cls.find_attribute("confirmed")->id)),
            1);
  EXPECT_EQ(app.database().current_state(thermo),
            app_cls.find_state("Heating")->id);
}

TEST(SystemExecutor, RepeatedRequests) {
  TwoDomains s;
  SystemExecutor sys(s.def);
  auto& app = sys.domain("App");
  auto& dev = sys.domain("Device");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  auto app_proxy = dev.create("AppProxy");
  auto heater = dev.create_with("Heater", {{"client", Value(app_proxy)}});
  sys.bind(proxy, "App", heater, "Device");
  sys.bind(app_proxy, "Device", thermo, "App");

  for (int i = 0; i < 4; ++i) {
    app.inject(thermo, "too_cold", {Value(std::int64_t{1})});
    sys.run_all();
  }
  const auto& dev_cls = *s.dev_d->find_class("Heater");
  EXPECT_EQ(std::get<std::int64_t>(dev.database().get_attr(
                heater, dev_cls.find_attribute("activations")->id)),
            4);
  EXPECT_EQ(sys.forwarded_count(), 8u);
}

TEST(SystemExecutor, UnboundProxyFaults) {
  TwoDomains s;
  SystemExecutor sys(s.def);
  auto& app = sys.domain("App");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  app.inject(thermo, "too_cold", {Value(std::int64_t{1})});
  EXPECT_THROW(sys.run_all(), ModelError);
}

TEST(SystemExecutor, InvalidSystemRejectedAtConstruction) {
  TwoDomains s;
  SystemDef bad = s.def;
  bad.add_wire({"App", "HeaterProxy", "heat_request",
                "Device", "Heater", "on"});  // duplicate source
  EXPECT_THROW(SystemExecutor{bad}, std::invalid_argument);
}

TEST(SystemExecutor, UnknownDomainLookupThrows) {
  TwoDomains s;
  SystemExecutor sys(s.def);
  EXPECT_THROW(sys.domain("Nope"), std::invalid_argument);
}

// A forged element count must be refused by snap::Reader::count before the
// loader loops for it (the cosim loaders' cases are in snap_test).
TEST(SnapReject, ForgedBridgeForwardCount) {
  TwoDomains s;
  SystemExecutor sys(s.def);
  auto& app = sys.domain("App");
  auto& dev = sys.domain("Device");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  auto app_proxy = dev.create("AppProxy");
  auto heater = dev.create_with("Heater", {{"client", Value(app_proxy)}});
  sys.bind(proxy, "App", heater, "Device");
  sys.bind(app_proxy, "Device", thermo, "App");
  app.inject(thermo, "too_cold", {Value(std::int64_t{3})});
  sys.run_all();

  snap::Writer w;
  sys.save_state(w);
  std::vector<std::uint8_t> bytes = w.data();
  // Drained, so no forward is pending: the forward count sits just before
  // the three trailing counters.
  const std::size_t at = bytes.size() - 4 * 8;
  ASSERT_TRUE(std::all_of(bytes.begin() + static_cast<long>(at),
                          bytes.begin() + static_cast<long>(at + 8),
                          [](std::uint8_t b) { return b == 0; }));
  const std::uint64_t forged = std::uint64_t{1} << 40;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(forged >> (8 * i));
  }
  snap::Reader r(bytes);
  try {
    sys.load_state(r);
    FAIL() << "forged forward count not rejected";
  } catch (const snap::SnapError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot count " + std::to_string(forged) + " at offset " +
                  std::to_string(at) + " exceeds the "),
              std::string::npos)
        << e.what();
  }
}

// The carry backoff shifts by a forward's attempt count, so a restored
// count must stay a valid shift.
TEST(SnapReject, ForgedBridgeForwardAttempts) {
  TwoDomains s;
  fault::FaultSpec spec;
  spec.seed = 5;
  spec.bus_error = 0.5;
  fault::Plan plan(spec);
  SystemExecutor sys(s.def, {}, &plan);
  auto& app = sys.domain("App");
  auto& dev = sys.domain("Device");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  auto app_proxy = dev.create("AppProxy");
  auto heater = dev.create_with("Heater", {{"client", Value(app_proxy)}});
  sys.bind(proxy, "App", heater, "Device");
  sys.bind(app_proxy, "Device", thermo, "App");
  app.inject(thermo, "too_cold", {Value(std::int64_t{1})});
  EXPECT_THROW(sys.run_all(1), ModelError);
  ASSERT_GT(sys.retried_forward_count(), 0u);  // so it is still pending

  snap::Writer w;
  sys.save_state(w);
  // The last forward ends with its attempt count and backoff round, before
  // the three trailing counters.
  const std::size_t at = w.size() - 3 * 8 - 8 - 8;
  for (const std::int64_t forged : {std::int64_t{-1}, std::int64_t{64}}) {
    std::vector<std::uint8_t> bytes = w.data();
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(
          static_cast<std::uint64_t>(forged) >> (8 * i));
    }
    snap::Reader r(bytes);
    try {
      sys.load_state(r);
      FAIL() << "forged attempt count " << forged << " not rejected";
    } catch (const snap::SnapError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "bridge snapshot forward has made " +
                    std::to_string(forged) + " carry attempts"),
                std::string::npos)
          << e.what();
    }
  }
}

// The bridge's checkpoint bytes with forwards pending mid-backoff, pinned
// by FNV-1a. A changed pin means the checkpoint layout changed: bump
// kSnapVersion and re-pin.
TEST(SnapGolden, BridgeSystemExecutor) {
  TwoDomains s;
  fault::FaultSpec spec;
  spec.seed = 5;
  spec.bus_error = 0.5;
  fault::Plan plan(spec);
  SystemExecutor sys(s.def, {}, &plan);
  auto& app = sys.domain("App");
  auto& dev = sys.domain("Device");
  auto proxy = app.create("HeaterProxy");
  auto thermo = app.create_with("Thermostat", {{"heater", Value(proxy)}});
  auto app_proxy = dev.create("AppProxy");
  auto heater = dev.create_with("Heater", {{"client", Value(app_proxy)}});
  sys.bind(proxy, "App", heater, "Device");
  sys.bind(app_proxy, "Device", thermo, "App");
  for (int i = 0; i < 3; ++i) {
    app.inject(thermo, "too_cold", {Value(std::int64_t{i + 1})});
  }
  EXPECT_THROW(sys.run_all(2), ModelError);  // stopped with forwards pending
  EXPECT_GT(sys.retried_forward_count(), 0u);

  snap::Writer w;
  sys.save_state(w);
  const std::vector<std::uint8_t>& bytes = w.data();
  EXPECT_EQ(testing::fnv1a(std::string(bytes.begin(), bytes.end())), 0x1b4f2b123ac67a1full);
}

}  // namespace
}  // namespace xtsoc::bridge
