#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "xtsoc/marks/marks.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::marks {
namespace {

using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;
using xtuml::ScalarValue;

Domain make_domain() {
  DomainBuilder b("Soc");
  b.cls("Compressor", "CMP").attr("ratio", DataType::kInt);
  b.cls("Controller", "CTL").attr("mode", DataType::kInt);
  return std::move(*b.take());
}

TEST(MarkSet, UnmarkedClassIsSoftware) {
  MarkSet m;
  EXPECT_EQ(m.target_of("Compressor"), Target::kSoftware);
  EXPECT_FALSE(m.is_hardware("Compressor"));
}

TEST(MarkSet, IsHardwareMarkFlipsTarget) {
  MarkSet m;
  m.mark_hardware("Compressor");
  EXPECT_EQ(m.target_of("Compressor"), Target::kHardware);
  m.mark_hardware("Compressor", false);
  EXPECT_EQ(m.target_of("Compressor"), Target::kSoftware);
}

TEST(MarkSet, MarksDoNotPolluteTheModel) {
  // The model and the marks are separate artifacts: marking a class does
  // not modify the Domain in any way (the paper's "sticky notes" property).
  Domain d = make_domain();
  MarkSet m;
  m.mark_hardware("Compressor");
  EXPECT_EQ(d.find_class("Compressor")->attributes.size(), 1u);
  // Nothing in ClassDef knows about marks — this is a compile-time property
  // of the types, asserted here for documentation.
}

TEST(MarkSet, ClassAndDomainScopesSeparate) {
  MarkSet m;
  m.set_domain_mark(kBusLatency, ScalarValue(std::int64_t{7}));
  m.set_class_mark("A", kClockDomain, ScalarValue(std::int64_t{2}));
  EXPECT_EQ(m.domain_mark_int(kBusLatency), 7);
  EXPECT_EQ(m.class_mark_int("A", kClockDomain), 2);
  EXPECT_FALSE(m.class_mark("A", kBusLatency).has_value());
  EXPECT_FALSE(m.domain_mark(kClockDomain).has_value());
}

TEST(MarkSet, IntFallbacks) {
  MarkSet m;
  EXPECT_EQ(m.class_mark_int("A", kIntWidth), 32);
  m.set_class_mark("A", kIntWidth, ScalarValue(std::int64_t{16}));
  EXPECT_EQ(m.class_mark_int("A", kIntWidth), 16);
  // wrong type -> fallback
  m.set_class_mark("B", kIntWidth, ScalarValue(true));
  EXPECT_EQ(m.class_mark_int("B", kIntWidth), 32);
}

TEST(MarkSet, ClearMark) {
  MarkSet m;
  m.mark_hardware("A");
  EXPECT_EQ(m.mark_count(), 1u);
  m.clear_class_mark("A", kIsHardware);
  EXPECT_EQ(m.mark_count(), 0u);
  EXPECT_FALSE(m.is_hardware("A"));
}

TEST(MarkDiff, RepartitionIsOneChange) {
  // The paper's headline: "Changing the partition is a matter of changing
  // the placement of the marks."
  MarkSet before;
  before.mark_hardware("Compressor");
  before.set_class_mark("Compressor", kClockDomain, ScalarValue(std::int64_t{1}));

  MarkSet after = before;
  after.mark_hardware("Compressor", false);  // move to software

  MarkDiff d = MarkSet::diff(before, after);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.changes[0].element, "Compressor");
  EXPECT_EQ(d.changes[0].key, kIsHardware);
  EXPECT_EQ(std::get<bool>(*d.changes[0].before), true);
  EXPECT_EQ(std::get<bool>(*d.changes[0].after), false);
}

TEST(MarkDiff, AddAndRemove) {
  MarkSet a, b;
  a.set_class_mark("X", kMaxInstances, ScalarValue(std::int64_t{1}));
  b.set_class_mark("Y", kMaxInstances, ScalarValue(std::int64_t{2}));
  MarkDiff d = MarkSet::diff(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.changes[0].after.has_value());  // X removed
  EXPECT_FALSE(d.changes[1].before.has_value()); // Y added
}

TEST(MarkDiff, IdenticalSetsEmptyDiff) {
  MarkSet a;
  a.mark_hardware("A");
  EXPECT_TRUE(MarkSet::diff(a, a).empty());
}

TEST(MarkSet, TextRoundTrip) {
  MarkSet m;
  m.mark_hardware("Compressor");
  m.set_class_mark("Compressor", kClockDomain, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Controller", kMaxInstances, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(kBusLatency, ScalarValue(std::int64_t{8}));

  std::string text = m.to_text();
  DiagnosticSink sink;
  MarkSet back = MarkSet::from_text(text, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  EXPECT_EQ(back, m);
}

TEST(MarkSet, FromTextParsesKindsAndComments) {
  DiagnosticSink sink;
  MarkSet m = MarkSet::from_text(
      "# partition file\n"
      "Compressor.isHardware = true\n"
      "domain.busLatency = 12\n"
      "Compressor.label = \"fast path\"\n"
      "Compressor.gain = 1.5\n"
      "\n",
      sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();
  EXPECT_TRUE(m.is_hardware("Compressor"));
  EXPECT_EQ(m.domain_mark_int(kBusLatency), 12);
  EXPECT_EQ(std::get<std::string>(*m.class_mark("Compressor", "label")),
            "fast path");
  EXPECT_DOUBLE_EQ(std::get<double>(*m.class_mark("Compressor", "gain")), 1.5);
}

TEST(MarkSet, FromTextReportsBadLines) {
  DiagnosticSink sink;
  MarkSet::from_text("no equals sign\n", sink);
  EXPECT_TRUE(sink.has_errors());
  sink.clear();
  MarkSet::from_text("noDot = 3\n", sink);
  EXPECT_TRUE(sink.has_errors());
  sink.clear();
  MarkSet::from_text("A.k = notavalue\n", sink);
  EXPECT_TRUE(sink.has_errors());
  sink.clear();
  MarkSet::from_text("A.k = \"unterminated\n", sink);
  EXPECT_TRUE(sink.has_errors());
}

TEST(Validate, AcceptsGoodMarks) {
  Domain d = make_domain();
  MarkSet m;
  m.mark_hardware("Compressor");
  m.set_class_mark("Compressor", kClockDomain, ScalarValue(std::int64_t{0}));
  m.set_domain_mark(kBusLatency, ScalarValue(std::int64_t{4}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
}

TEST(Validate, UnknownClassRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.mark_hardware("Nope");
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
}

TEST(Validate, WrongTypeRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", kIsHardware, ScalarValue(std::int64_t{1}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
}

TEST(Validate, WrongScopeRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.set_domain_mark(kIsHardware, ScalarValue(true));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));

  sink.clear();
  MarkSet m2;
  m2.set_class_mark("Compressor", kBusLatency, ScalarValue(std::int64_t{1}));
  EXPECT_FALSE(m2.validate(d, sink));
}

TEST(Validate, IntWidthRange) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", kIntWidth, ScalarValue(std::int64_t{65}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  sink.clear();
  MarkSet m2;
  m2.set_class_mark("Compressor", kIntWidth, ScalarValue(std::int64_t{0}));
  EXPECT_FALSE(m2.validate(d, sink));
  sink.clear();
  MarkSet m3;
  m3.set_class_mark("Compressor", kIntWidth, ScalarValue(std::int64_t{16}));
  EXPECT_TRUE(m3.validate(d, sink)) << sink.to_string();
}

TEST(Validate, BusLatencyMustBeNonNegative) {
  Domain d = make_domain();
  // 0 is legal: it clamps the windowed co-simulation to one-cycle
  // windows. Negative would mean delivery into the past.
  MarkSet m;
  m.set_domain_mark(kBusLatency, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();

  MarkSet m2;
  m2.set_domain_mark(kBusLatency, ScalarValue(std::int64_t{-1}));
  sink.clear();
  EXPECT_FALSE(m2.validate(d, sink));
  EXPECT_NE(sink.to_string().find("bus_latency"), std::string::npos);
}

TEST(Validate, LinkLatencyMustBePositive) {
  Domain d = make_domain();
  MarkSet m;
  m.set_domain_mark(kLinkLatency, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("link_latency"), std::string::npos);

  MarkSet m2;
  m2.set_domain_mark(kLinkLatency, ScalarValue(std::int64_t{-3}));
  sink.clear();
  EXPECT_FALSE(m2.validate(d, sink));

  MarkSet m3;
  m3.set_domain_mark(kLinkLatency, ScalarValue(std::int64_t{2}));
  sink.clear();
  EXPECT_TRUE(m3.validate(d, sink)) << sink.to_string();
}

TEST(Validate, NearMissKeyWarns) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", "ishardware", ScalarValue(true));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink));  // warning, not error
  EXPECT_NE(sink.to_string().find("near_miss"), std::string::npos);
}

TEST(Validate, UnknownKeyAllowed) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", "customVendorHint", ScalarValue(std::int64_t{9}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
  EXPECT_TRUE(sink.all().empty());
}

TEST(Validate, RetiredKeysWarnAndStillLoad) {
  Domain d = make_domain();
  DiagnosticSink sink;
  MarkSet m = MarkSet::from_text(
      "Compressor.isHardware = true\n"
      "Compressor.busId = 1\n"
      "Controller.priority = 2\n"
      "domain.memTraffic.writeFraction = 0.2\n",
      sink);
  ASSERT_TRUE(sink.all().empty()) << sink.to_string();
  EXPECT_TRUE(m.is_hardware("Compressor"));
  EXPECT_TRUE(m.validate(d, sink));  // warnings, not errors
  ASSERT_EQ(sink.all().size(), 3u) << sink.to_string();
  for (const Diagnostic& diag : sink.all()) {
    EXPECT_EQ(diag.severity, Severity::kWarning);
    EXPECT_EQ(diag.code, "marks.retired");
  }
  // Domain scope sorts first.
  EXPECT_NE(sink.all()[0].message.find("memTraffic.writeFraction"),
            std::string::npos);
  EXPECT_NE(sink.all()[1].message.find("busId"), std::string::npos);
  EXPECT_NE(sink.all()[2].message.find("priority"), std::string::npos);
}

// --- NoC placement marks --------------------------------------------------------

MarkSet placed(const char* cls, std::int64_t x, std::int64_t y) {
  MarkSet m;
  m.mark_hardware(cls);
  m.set_class_mark(cls, kTileX, ScalarValue(x));
  m.set_class_mark(cls, kTileY, ScalarValue(y));
  return m;
}

TEST(Validate, GoodMeshPlacementAccepted) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 1, 1);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{2}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
}

TEST(Validate, TileKeyTyposWarn) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", "tilex", ScalarValue(std::int64_t{1}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink));  // warning, not error
  EXPECT_NE(sink.to_string().find("near_miss"), std::string::npos);

  sink.clear();
  MarkSet m2;
  m2.set_domain_mark("meshwidth", ScalarValue(std::int64_t{2}));
  EXPECT_TRUE(m2.validate(d, sink));
  EXPECT_NE(sink.to_string().find("near_miss"), std::string::npos);
}

TEST(Validate, TileScopeAndTypeEnforced) {
  Domain d = make_domain();
  MarkSet m;
  m.set_domain_mark(kTileX, ScalarValue(std::int64_t{1}));  // class-scope key
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));

  sink.clear();
  MarkSet m2;
  m2.set_class_mark("Compressor", kMeshWidth,
                    ScalarValue(std::int64_t{2}));  // domain-scope key
  EXPECT_FALSE(m2.validate(d, sink));

  sink.clear();
  MarkSet m3 = placed("Compressor", 0, 0);
  m3.set_class_mark("Compressor", kTileX, ScalarValue(true));  // wrong type
  EXPECT_FALSE(m3.validate(d, sink));
}

TEST(Validate, TileXWithoutTileYRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.mark_hardware("Compressor");
  m.set_class_mark("Compressor", kTileX, ScalarValue(std::int64_t{1}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("tile_pair"), std::string::npos);
}

TEST(Validate, OutOfRangeTileRejected) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 5, 0);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{2}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("tile_range"), std::string::npos);

  sink.clear();
  MarkSet neg = placed("Compressor", -1, 0);
  EXPECT_FALSE(neg.validate(d, sink));
  EXPECT_NE(sink.to_string().find("tile_range"), std::string::npos);
}

TEST(Validate, MeshDimensionsBounded) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 0, 1);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{65}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("mesh_dims"), std::string::npos);
}

TEST(Validate, HardwareOnSoftwareTileRejected) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 0, 0);  // software tile defaults to (0,0)
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{2}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("tile_clash"), std::string::npos);
}

TEST(Validate, UnplacedHardwareClassRejectedOnceMeshInPlay) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 1, 0);
  m.mark_hardware("Controller");  // hardware but no tileX/tileY
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("tile_missing"), std::string::npos);
}

TEST(Validate, TileMarksOnSoftwareClassWarn) {
  Domain d = make_domain();
  MarkSet m;  // Compressor stays software but is "placed"
  m.set_class_mark("Compressor", kTileX, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Compressor", kTileY, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink));  // warning, not error
  EXPECT_NE(sink.to_string().find("tile_sw"), std::string::npos);
}

// --- topology / routing marks -----------------------------------------------

TEST(Validate, TopologyAndRoutingAreDomainStrings) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", kTopology, ScalarValue(std::string("torus")));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("domain mark"), std::string::npos);

  sink.clear();
  MarkSet m2;
  m2.set_domain_mark(kRouting, ScalarValue(std::int64_t{1}));
  EXPECT_FALSE(m2.validate(d, sink));
  EXPECT_NE(sink.to_string().find("must be a string"), std::string::npos);
}

TEST(Validate, UnknownTopologyValueRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.set_domain_mark(kTopology, ScalarValue(std::string("hypercube")));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.topology"), std::string::npos);
  EXPECT_NE(sink.to_string().find("hypercube"), std::string::npos);
}

TEST(Validate, UnknownRoutingValueRejected) {
  Domain d = make_domain();
  MarkSet m;
  m.set_domain_mark(kRouting, ScalarValue(std::string("odd-even")));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.routing"), std::string::npos);
}

TEST(Validate, RingNeedsSingleRow) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 1, 1);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kTopology, ScalarValue(std::string("ring")));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("ring topology is one row"),
            std::string::npos);

  // The same check reads the placement bounding box when dimensions are
  // implicit: a class placed at y=1 forces two rows.
  sink.clear();
  MarkSet m2 = placed("Compressor", 0, 1);
  m2.set_domain_mark(kTopology, ScalarValue(std::string("ring")));
  EXPECT_FALSE(m2.validate(d, sink));
  EXPECT_NE(sink.to_string().find("ring topology is one row"),
            std::string::npos);
}

TEST(Validate, TorusNeedsBothDimensions) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 3, 0);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{1}));
  m.set_domain_mark(kTopology, ScalarValue(std::string("torus")));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("a single wrapped row is a ring"),
            std::string::npos);
}

TEST(Validate, AdaptiveRoutingExcludesNocFaultInjection) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 1, 1);
  m.set_domain_mark(kRouting, ScalarValue(std::string("adaptive")));
  m.set_domain_mark(kFaultRateFlitDrop, ScalarValue(0.01));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("adaptive"), std::string::npos);

  // Rate 0 is explicitly fine: the plan never fires on the fabric.
  sink.clear();
  MarkSet m2 = placed("Compressor", 1, 1);
  m2.set_domain_mark(kRouting, ScalarValue(std::string("adaptive")));
  m2.set_domain_mark(kFaultRateFlitDrop, ScalarValue(0.0));
  EXPECT_TRUE(m2.validate(d, sink)) << sink.to_string();
}

TEST(Validate, GoodTopologyRoutingCombosAccepted) {
  Domain d = make_domain();
  {
    MarkSet m = placed("Compressor", 1, 1);
    m.set_domain_mark(kTopology, ScalarValue(std::string("torus")));
    m.set_domain_mark(kRouting, ScalarValue(std::string("yx")));
    DiagnosticSink sink;
    EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
  }
  {
    MarkSet m = placed("Compressor", 3, 0);
    m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{4}));
    m.set_domain_mark(kTopology, ScalarValue(std::string("ring")));
    DiagnosticSink sink;
    EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
  }
  {
    // Bus-only model (no mesh described): the marks are legal, just inert
    // until a placement appears.
    MarkSet m;
    m.set_domain_mark(kTopology, ScalarValue(std::string("torus")));
    DiagnosticSink sink;
    EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
  }
}

// --- memory-hierarchy marks -------------------------------------------------

/// A placed hardware class plus a DRAM edge on the free tile of a 2x2 mesh
/// (software at (0,0), Compressor at (1,1), DRAM at tile 1) — the minimal
/// legal memory-marked platform the negative tests below perturb.
MarkSet mem_marked() {
  MarkSet m = placed("Compressor", 1, 1);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kDramTile, ScalarValue(std::int64_t{1}));
  return m;
}

TEST(Validate, GoodMemoryMarksAccepted) {
  Domain d = make_domain();
  MarkSet m = mem_marked();
  m.set_domain_mark(kCacheSets, ScalarValue(std::int64_t{8}));
  m.set_domain_mark(kCacheWays, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(kCacheLineBytes, ScalarValue(std::int64_t{64}));
  m.set_domain_mark(kCacheHitLatency, ScalarValue(std::int64_t{1}));
  m.set_domain_mark(kDramTRcd, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(kDramTCas, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(kDramTRp, ScalarValue(std::int64_t{2}));
  DiagnosticSink sink;
  EXPECT_TRUE(m.validate(d, sink)) << sink.to_string();
}

TEST(Validate, CacheGeometryMustBePowerOfTwo) {
  Domain d = make_domain();
  for (const char* key : {kCacheSets, kCacheWays, kCacheLineBytes}) {
    MarkSet m = mem_marked();
    m.set_domain_mark(key, ScalarValue(std::int64_t{48}));
    DiagnosticSink sink;
    EXPECT_FALSE(m.validate(d, sink)) << key;
    EXPECT_NE(sink.to_string().find("marks.cache.pow2"), std::string::npos)
        << key;
  }
  // Zero and negative are not powers of two either.
  MarkSet m = mem_marked();
  m.set_domain_mark(kCacheSets, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.cache.pow2"), std::string::npos);
}

TEST(Validate, HitLatencyAtLeastOneCycle) {
  Domain d = make_domain();
  MarkSet m = mem_marked();
  m.set_domain_mark(kCacheHitLatency, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.cache.range"), std::string::npos);
}

TEST(Validate, CacheMarksWithoutDramTileRejected) {
  Domain d = make_domain();
  MarkSet m = placed("Compressor", 1, 1);
  m.set_domain_mark(kCacheSets, ScalarValue(std::int64_t{8}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.dram.missing_tile"),
            std::string::npos);
}

TEST(Validate, DramTileNeedsMeshPlacement) {
  Domain d = make_domain();
  MarkSet m;  // no tileX/tileY anywhere: bus-only model
  m.set_domain_mark(kDramTile, ScalarValue(std::int64_t{1}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.dram.requires_mesh"),
            std::string::npos);
}

TEST(Validate, DramTimingMustBePositive) {
  Domain d = make_domain();
  for (const char* key : {kDramTRcd, kDramTCas, kDramTRp}) {
    MarkSet m = mem_marked();
    m.set_domain_mark(key, ScalarValue(std::int64_t{0}));
    DiagnosticSink sink;
    EXPECT_FALSE(m.validate(d, sink)) << key;
    EXPECT_NE(sink.to_string().find("marks.dram.range"), std::string::npos)
        << key;
  }
}

TEST(Validate, DramTileOutsideMeshRejected) {
  Domain d = make_domain();
  MarkSet m = mem_marked();
  m.set_domain_mark(kDramTile, ScalarValue(std::int64_t{4}));  // 2x2 has 0..3
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("[marks.dram.tile]"), std::string::npos)
      << sink.to_string();

  sink.clear();
  MarkSet neg = mem_marked();
  neg.set_domain_mark(kDramTile, ScalarValue(std::int64_t{-1}));
  EXPECT_FALSE(neg.validate(d, sink));
}

TEST(Validate, DramTileMustBeUnoccupied) {
  Domain d = make_domain();
  // Tile 3 is Compressor's tile in the 2x2 placement.
  MarkSet m = mem_marked();
  m.set_domain_mark(kDramTile, ScalarValue(std::int64_t{3}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.dram.tile_clash"), std::string::npos);
  EXPECT_NE(sink.to_string().find("Compressor"), std::string::npos);

  // Tile 0 is the software tile by default.
  sink.clear();
  MarkSet sw = mem_marked();
  sw.set_domain_mark(kDramTile, ScalarValue(std::int64_t{0}));
  EXPECT_FALSE(sw.validate(d, sink));
  EXPECT_NE(sink.to_string().find("marks.dram.tile_clash"), std::string::npos);
  EXPECT_NE(sink.to_string().find("software tile"), std::string::npos);
}


// --- ranges the fabric and the instance pool rely on ------------------------

TEST(Validate, RouterBuffersAndFlitsHoldSomething) {
  // The same bounds noc::Fabric enforces, caught here as marks errors.
  Domain d = make_domain();
  for (const char* key : {kFifoDepth, kFlitBytes}) {
    for (std::int64_t v : {0, -2}) {
      MarkSet m = placed("Compressor", 1, 0);
      m.set_domain_mark(key, ScalarValue(v));
      DiagnosticSink sink;
      EXPECT_FALSE(m.validate(d, sink)) << key << " = " << v;
      EXPECT_NE(sink.to_string().find(std::string("domain.") + key),
                std::string::npos)
          << sink.to_string();
    }
    MarkSet ok = placed("Compressor", 1, 0);
    ok.set_domain_mark(key, ScalarValue(std::int64_t{1}));
    DiagnosticSink sink;
    EXPECT_TRUE(ok.validate(d, sink)) << sink.to_string();
  }
}

TEST(Validate, InstancePoolHoldsAnInstance) {
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", kMaxInstances, ScalarValue(std::int64_t{0}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("[marks.max_instances]"), std::string::npos);

  MarkSet ok;
  ok.set_class_mark("Compressor", kMaxInstances, ScalarValue(std::int64_t{1}));
  sink.clear();
  EXPECT_TRUE(ok.validate(d, sink)) << sink.to_string();
}

TEST(Validate, ClockDividerIsNotNegative) {
  // 0 and 1 both mean full rate; N >= 2 divides the hardware clock.
  Domain d = make_domain();
  MarkSet m;
  m.set_class_mark("Compressor", kClockDomain, ScalarValue(std::int64_t{-1}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("[marks.clock_domain]"), std::string::npos);

  MarkSet ok;
  ok.set_class_mark("Compressor", kClockDomain, ScalarValue(std::int64_t{0}));
  sink.clear();
  EXPECT_TRUE(ok.validate(d, sink)) << sink.to_string();
}

TEST(Validate, WildMeshSizesAreRejectedWithoutOverflow) {
  // Coordinates and sizes come from a file: the mesh arithmetic must not
  // overflow on them (the sanitizer build runs this).
  Domain d = make_domain();
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  MarkSet m = placed("Compressor", huge, huge);
  m.set_domain_mark(kDramTile, ScalarValue(std::int64_t{1}));
  DiagnosticSink sink;
  EXPECT_FALSE(m.validate(d, sink));
  EXPECT_NE(sink.to_string().find("[marks.mesh_dims]"), std::string::npos);

  MarkSet wide = placed("Compressor", 1, 0);
  wide.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{1} << 40));
  wide.set_domain_mark(kMeshHeight, ScalarValue(std::int64_t{1} << 40));
  wide.set_domain_mark(kDramTile, ScalarValue(std::int64_t{1}));
  sink.clear();
  EXPECT_FALSE(wide.validate(d, sink));
  EXPECT_NE(sink.to_string().find("[marks.mesh_dims]"), std::string::npos);
}

TEST(MarkSet, ReadersTakeDefaultsFromTheTable) {
  MarkSet m;
  for (const MarkSpec& spec : kStandardMarks) {
    if (spec.kind == Kind::kInt && spec.scope == Scope::kClass) {
      EXPECT_EQ(m.class_mark_int("A", spec.key), spec.fallback) << spec.key;
    } else if (spec.kind == Kind::kInt) {
      EXPECT_EQ(m.domain_mark_int(spec.key), spec.fallback) << spec.key;
    } else if (spec.kind == Kind::kNumber) {
      EXPECT_EQ(m.domain_mark_number(spec.key), spec.fallback) << spec.key;
    }
  }
  EXPECT_EQ(m.domain_mark_string(kTopology), "mesh");
  EXPECT_EQ(m.domain_mark_string(kRouting), "xy");
  // An int written where a number is declared reads as that number.
  m.set_domain_mark(kFaultRateLinkDown, ScalarValue(std::int64_t{1}));
  EXPECT_EQ(m.domain_mark_number(kFaultRateLinkDown), 1.0);
}

TEST(MarkSet, MeshShapeIsTheBoundingBoxUnlessGiven) {
  MarkSet m = placed("Compressor", 2, 1);
  m.set_class_mark("Controller", kTileX, ScalarValue(std::int64_t{0}));
  m.set_class_mark("Controller", kTileY, ScalarValue(std::int64_t{3}));
  MeshShape s = m.mesh_shape();
  EXPECT_TRUE(s.placed);
  EXPECT_EQ(s.width, 3);
  EXPECT_EQ(s.height, 4);
  // The software tile does not grow the box: outside it, validate rejects.
  m.set_domain_mark(kSwTileX, ScalarValue(std::int64_t{5}));
  EXPECT_EQ(m.mesh_shape().width, 3);
  m.set_domain_mark(kMeshWidth, ScalarValue(std::int64_t{8}));
  EXPECT_EQ(m.mesh_shape().width, 8);
  EXPECT_EQ(m.mesh_shape().sw_x, 5);
  EXPECT_FALSE(MarkSet{}.mesh_shape().placed);
}

// --- diagnostics pin -------------------------------------------------------------

// Every diagnostic validate can emit, on a corpus of mark sets: each case
// pins the sorted `severity [code] message` lines, so a rewrite of the
// validator that changes a code, a message or a count shows up here.
struct PinCase {
  const char* name;
  const char* marks;
  std::vector<std::string> want;
};

std::vector<std::string> diagnostic_lines(const char* text) {
  DiagnosticSink sink;
  MarkSet m = MarkSet::from_text(text, sink);
  EXPECT_TRUE(sink.all().empty()) << sink.to_string();
  m.validate(make_domain(), sink);
  std::vector<std::string> lines;
  for (const Diagnostic& d : sink.all()) lines.push_back(d.to_string());
  std::sort(lines.begin(), lines.end());
  return lines;
}

const PinCase kPinCorpus[] = {
    {"unknown class", "Nope.isHardware = true\n", {
      "error [marks.unknown_class] mark on unknown class 'Nope'"}},
    {"scope",
     "domain.isHardware = true\nCompressor.busLatency = 1\ndomain.tileX = 1\n"
     "Compressor.topology = \"torus\"\nCompressor.faultRate.flitDrop = 0.1\n",
     {
      "error [marks.scope] busLatency is a domain mark, not class",
      "error [marks.scope] faultRate.flitDrop is a domain mark, not"
      " class",
      "error [marks.scope] isHardware is a class mark, not domain",
      "error [marks.scope] tileX is a class mark, not domain",
      "error [marks.scope] topology is a domain mark, not class"}},
    {"type",
     "Compressor.isHardware = 1\nCompressor.clockDomain = true\n"
     "domain.meshWidth = \"2\"\ndomain.routing = 1\n"
     "domain.faultRate.busError = \"high\"\n",
     {
      "error [marks.type] Compressor.clockDomain must be an int",
      "error [marks.type] Compressor.isHardware must be a bool",
      "error [marks.type] domain.faultRate.busError must be a number",
      "error [marks.type] domain.meshWidth must be an int",
      "error [marks.type] domain.routing must be a string"}},
    {"retired",
     "Compressor.busId = 1\nController.priority = 2\n"
     "domain.memTraffic.writeFraction = 0.2\n",
     {
      "warning [marks.retired] mark key 'busId' is retired: it"
      " selects no mapping rule and is ignored",
      "warning [marks.retired] mark key 'memTraffic.writeFraction'"
      " is retired: it selects no mapping rule and is ignored",
      "warning [marks.retired] mark key 'priority' is retired: it"
      " selects no mapping rule and is ignored"}},
    {"near miss",
     "Compressor.ishardware = true\ndomain.meshwidth = 2\n"
     "Compressor.tile_x = 1\n",
     {
      "warning [marks.near_miss] mark key 'ishardware' looks like a"
      " misspelled standard mark",
      "warning [marks.near_miss] mark key 'meshwidth' looks like a"
      " misspelled standard mark",
      "warning [marks.near_miss] mark key 'tile_x' looks like a"
      " misspelled standard mark"}},
    {"unknown key", "Compressor.customVendorHint = 9\n", {}},
    {"int width", "Compressor.intWidth = 65\nController.intWidth = 0\n", {
      "error [marks.int_width] Compressor.intWidth must be in [1, 64]",
      "error [marks.int_width] Controller.intWidth must be in [1, 64]"}},
    {"bus latency", "domain.busLatency = -1\n", {
      "error [marks.bus_latency] domain.busLatency must be >= 0 (got"
      " -1); a bus cannot deliver into the past"}},
    {"link latency", "domain.linkLatency = 0\n", {
      "error [marks.link_latency] domain.linkLatency must be >= 1"
      " (got 0); every mesh hop takes at least one cycle"}},
    {"fault ranges",
     "domain.faultSeed = -1\ndomain.faultWindow = -5\n"
     "domain.faultWindow.start = -2\ndomain.faultRate.flitDrop = 1.5\n"
     "domain.faultRate.flitCorrupt = -0.1\ndomain.faultRate.linkDown = 2\n"
     "domain.faultRate.busError = 1\n",
     {
      "error [marks.fault_range] domain.faultRate.flitCorrupt is a"
      " probability and must be in [0, 1]",
      "error [marks.fault_range] domain.faultRate.flitDrop is a"
      " probability and must be in [0, 1]",
      "error [marks.fault_range] domain.faultRate.linkDown is a"
      " probability and must be in [0, 1]",
      "error [marks.fault_range] domain.faultSeed must be >= 0 (got"
      " -1)",
      "error [marks.fault_range] domain.faultWindow must be >= 0"
      " (got -5)",
      "error [marks.fault_range] domain.faultWindow.start must be >="
      " 0 (got -2)"}},
    {"fault window order",
     "domain.faultWindow = 10\ndomain.faultWindow.start = 10\n", {
      "error [marks.fault_range] domain.faultWindow.start (10) is"
      " after domain.faultWindow (10); the window is empty"}},
    {"tile pair", "Compressor.isHardware = true\nCompressor.tileX = 1\n", {
      "error [marks.tile_missing] class 'Compressor' is isHardware"
      " but has no tileX/tileY; every hardware class needs a tile"
      " once any class is placed on the mesh",
      "error [marks.tile_pair] class 'Compressor' has tileX without"
      " tileY; a placement needs both coordinates"}},
    {"negative tile",
     "Compressor.isHardware = true\nCompressor.tileX = -1\n"
     "Compressor.tileY = 0\n",
     {
      "error [marks.tile_range] class 'Compressor' is placed at"
      " negative tile (-1,0)"}},
    {"tile outside explicit mesh",
     "Compressor.isHardware = true\nCompressor.tileX = 2\n"
     "Compressor.tileY = 0\ndomain.meshWidth = 2\ndomain.meshHeight = 2\n",
     {
      "error [marks.tile_range] class 'Compressor' is placed at tile"
      " (2,0), outside the 2x2 mesh"}},
    {"tile on software class", "Controller.tileX = 1\nController.tileY = 0\n",
     {
      "warning [marks.tile_sw] class 'Controller' has tile marks but"
      " is not isHardware; software classes live on the software"
      " tile and the placement is ignored"}},
    {"tile typed wrong", "Compressor.tileX = true\nCompressor.tileY = 0\n",
     {
      "error [marks.type] Compressor.tileX must be an int"}},
    {"mesh width too large",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\ndomain.meshWidth = 65\n",
     {
      "error [marks.mesh_dims] meshWidth/meshHeight must be in [1,"
      " 64]"}},
    {"placement box too large",
     "Compressor.isHardware = true\nCompressor.tileX = 70\n"
     "Compressor.tileY = 0\n",
     {
      "error [marks.mesh_dims] meshWidth/meshHeight must be in [1,"
      " 64]"}},
    {"tile clash",
     "Compressor.isHardware = true\nCompressor.tileX = 0\n"
     "Compressor.tileY = 0\ndomain.meshWidth = 2\n",
     {
      "error [marks.tile_clash] class 'Compressor' is placed on tile"
      " (0,0), which is the software tile"}},
    {"tile missing",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\nController.isHardware = true\n",
     {
      "error [marks.tile_missing] class 'Controller' is isHardware"
      " but has no tileX/tileY; every hardware class needs a tile"
      " once any class is placed on the mesh"}},
    {"software tile outside the placement box",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\ndomain.swTileX = 2\n",
     {
      "error [marks.tile_range] software tile (2,0) is outside the"
      " 2x1 mesh"}},
    {"negative software tile",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\ndomain.swTileX = -1\n",
     {
      "error [marks.tile_range] software tile (-1,0) is outside the"
      " 2x1 mesh"}},
    {"topology value", "domain.topology = \"hypercube\"\n", {
      "error [marks.topology] domain.topology must be \"mesh\","
      " \"torus\" or \"ring\" (got \"hypercube\")"}},
    {"routing value", "domain.routing = \"odd-even\"\n", {
      "error [marks.routing] domain.routing must be \"xy\", \"yx\" or"
      " \"adaptive\" (got \"odd-even\")"}},
    {"ring needs one row",
     "domain.meshWidth = 2\ndomain.meshHeight = 2\ndomain.topology = \"ring\"\n",
     {
      "error [marks.topology] ring topology is one row, but the mesh"
      " is 2x2; set meshHeight = 1 or use torus"}},
    {"torus of one row",
     "domain.meshWidth = 4\ndomain.meshHeight = 1\n"
     "domain.topology = \"torus\"\n",
     {
      "error [marks.topology] torus wraparound needs both dimensions"
      " >= 2, but the mesh is 4x1; a single wrapped row is a ring"}},
    {"torus from the placement box",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\ndomain.topology = \"torus\"\n",
     {
      "error [marks.topology] torus wraparound needs both dimensions"
      " >= 2, but the mesh is 2x1; a single wrapped row is a ring"}},
    {"adaptive with noc faults",
     "domain.routing = \"adaptive\"\ndomain.faultRate.flitDrop = 0.01\n"
     "domain.faultRate.linkDown = 0.5\n",
     {
      "error [marks.routing] domain.routing = \"adaptive\" cannot be"
      " combined with domain.faultRate.flitDrop > 0: the fault"
      " retransmit path alternates dimension orders, which adaptive"
      " routing replaces"}},
    {"adaptive with zero and bus faults",
     "domain.routing = \"adaptive\"\ndomain.faultRate.flitDrop = 0.0\n"
     "domain.faultRate.busError = 0.5\n",
     {}},
    {"cache without dram", "domain.cache.sets = 8\n", {
      "error [marks.dram.missing_tile] cache.*/dram.* marks need"
      " domain.dram.tile; without a DRAM edge tile there is no"
      " memory hierarchy to configure"}},
    {"dram without mesh", "domain.dram.tile = 1\n", {
      "error [marks.dram.requires_mesh] domain.dram.tile needs a"
      " mesh-mapped domain (tileX/tileY placements); coherence"
      " messages are fabric frames"}},
    {"cache geometry",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = 1\ndomain.cache.sets = 48\n"
     "domain.cache.ways = 0\ndomain.cache.lineBytes = -64\n"
     "domain.cache.hitLatency = 0\n",
     {
      "error [marks.cache.pow2] domain.cache.lineBytes must be a"
      " positive power of two (got -64); cache indexing is bit-sliced",
      "error [marks.cache.pow2] domain.cache.sets must be a positive"
      " power of two (got 48); cache indexing is bit-sliced",
      "error [marks.cache.pow2] domain.cache.ways must be a positive"
      " power of two (got 0); cache indexing is bit-sliced",
      "error [marks.cache.range] domain.cache.hitLatency must be >="
      " 1 (got 0); even a hit takes a cycle"}},
    {"dram timing",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = 1\ndomain.dram.tRCD = 0\n"
     "domain.dram.tCAS = -1\ndomain.dram.tRP = 0\n",
     {
      "error [marks.dram.range] domain.dram.tCAS must be >= 1 (got"
      " -1)",
      "error [marks.dram.range] domain.dram.tRCD must be >= 1 (got 0)",
      "error [marks.dram.range] domain.dram.tRP must be >= 1 (got 0)"}},
    {"dram tile outside",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = 4\n",
     {
      "error [marks.dram.tile] domain.dram.tile 4 is outside the 2x2"
      " mesh"}},
    {"negative dram tile",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = -1\n",
     {
      "error [marks.dram.tile] domain.dram.tile -1 is outside the"
      " 2x2 mesh"}},
    {"dram on the software tile",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = 0\n",
     {
      "error [marks.dram.tile_clash] domain.dram.tile 0 is the"
      " software tile; the DRAM edge needs an unoccupied tile (its"
      " NIC is the directory)"}},
    {"dram on a class tile",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 1\ndomain.dram.tile = 3\n",
     {
      "error [marks.dram.tile_clash] domain.dram.tile 3 collides"
      " with class 'Compressor'; the DRAM edge needs an unoccupied"
      " tile"}},
    {"every key in range",
     "Compressor.isHardware = true\nCompressor.clockDomain = 2\n"
     "Compressor.maxInstances = 8\nCompressor.intWidth = 16\n"
     "Compressor.tileX = 1\nCompressor.tileY = 1\nController.clockDomain = 0\n"
     "domain.busLatency = 0\ndomain.meshWidth = 3\ndomain.meshHeight = 2\n"
     "domain.swTileX = 0\ndomain.swTileY = 1\ndomain.linkLatency = 2\n"
     "domain.flitBytes = 8\ndomain.fifoDepth = 1\n"
     "domain.topology = \"torus\"\ndomain.routing = \"yx\"\n"
     "domain.faultSeed = 0\ndomain.faultWindow = 100\n"
     "domain.faultWindow.start = 10\ndomain.faultRate.flitDrop = 0.1\n"
     "domain.faultRate.flitCorrupt = 0\ndomain.faultRate.linkDown = 1\n"
     "domain.faultRate.busError = 0.5\ndomain.dram.tile = 2\n"
     "domain.dram.tRCD = 1\ndomain.dram.tCAS = 1\ndomain.dram.tRP = 1\n"
     "domain.cache.sets = 1\ndomain.cache.ways = 1\n"
     "domain.cache.lineBytes = 64\ndomain.cache.hitLatency = 1\n",
     {}},
    {"router buffers and link width",
     "Compressor.isHardware = true\nCompressor.tileX = 1\n"
     "Compressor.tileY = 0\ndomain.fifoDepth = 0\ndomain.flitBytes = -2\n",
     {
      "error [marks.fifo_depth] domain.fifoDepth must be >= 1 (got 0);"
      " a router buffer holds at least one flit",
      "error [marks.flit_bytes] domain.flitBytes must be >= 1 (got -2);"
      " a flit carries at least one byte"}},
    {"instance pool", "Compressor.maxInstances = -1\n", {
      "error [marks.max_instances] Compressor.maxInstances must be >= 1"
      " (got -1); it sizes the instance pool"}},
    {"clock divider", "Compressor.clockDomain = -1\n", {
      "error [marks.clock_domain] Compressor.clockDomain must be >= 0"
      " (got -1); it divides the hardware clock"}},
};

TEST(ValidatePin, EveryDiagnosticIsPinned) {
  std::set<std::string> codes;
  for (const PinCase& c : kPinCorpus) {
    DiagnosticSink sink;
    MarkSet::from_text(c.marks, sink).validate(make_domain(), sink);
    for (const Diagnostic& d : sink.all()) codes.insert(d.code);
    EXPECT_EQ(diagnostic_lines(c.marks), c.want) << c.name;
  }
  const std::set<std::string> every = {
      "marks.unknown_class",     "marks.scope",
      "marks.type",              "marks.retired",
      "marks.near_miss",         "marks.int_width",
      "marks.bus_latency",       "marks.link_latency",
      "marks.fault_range",       "marks.tile_pair",
      "marks.tile_range",        "marks.tile_sw",
      "marks.mesh_dims",         "marks.tile_clash",
      "marks.tile_missing",      "marks.topology",
      "marks.routing",           "marks.dram.missing_tile",
      "marks.dram.requires_mesh", "marks.cache.pow2",
      "marks.cache.range",       "marks.dram.range",
      "marks.dram.tile",         "marks.dram.tile_clash",
      "marks.fifo_depth",        "marks.flit_bytes",
      "marks.max_instances",     "marks.clock_domain"};
  EXPECT_EQ(codes, every);
}

}  // namespace
}  // namespace xtsoc::marks
