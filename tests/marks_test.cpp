#include <gtest/gtest.h>

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
  EXPECT_EQ(m.domain_mark_int(kBusLatency, 0), 7);
  EXPECT_EQ(m.class_mark_int("A", kClockDomain, 0), 2);
  EXPECT_FALSE(m.class_mark("A", kBusLatency).has_value());
  EXPECT_FALSE(m.domain_mark(kClockDomain).has_value());
}

TEST(MarkSet, IntFallbacks) {
  MarkSet m;
  EXPECT_EQ(m.class_mark_int("A", kIntWidth, 32), 32);
  m.set_class_mark("A", kIntWidth, ScalarValue(std::int64_t{16}));
  EXPECT_EQ(m.class_mark_int("A", kIntWidth, 32), 16);
  // wrong type -> fallback
  m.set_class_mark("B", kIntWidth, ScalarValue(true));
  EXPECT_EQ(m.class_mark_int("B", kIntWidth, 32), 32);
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
  EXPECT_EQ(m.domain_mark_int(kBusLatency, 0), 12);
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

}  // namespace
}  // namespace xtsoc::marks
