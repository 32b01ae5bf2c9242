// Tests for the xtsoc::noc mesh fabric — both the raw cycle-accurate
// network (routing, segmentation, credits, determinism) and its cosim
// integration (mark-driven placement changes latency, never behavior).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <random>
#include <tuple>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/noc/topology.hpp"
#include "xtsoc/noc/traffic.hpp"
#include "xtsoc/snap/io.hpp"
#include "xtsoc/verify/equivalence.hpp"

namespace xtsoc::noc {
namespace {

using runtime::InstanceHandle;
using runtime::Value;
using testing::MappedFixture;
using testing::fnv1a;
using testing::make_pipeline_domain;
using xtuml::ScalarValue;

FabricConfig small_mesh(int w = 2, int h = 2) {
  FabricConfig cfg;
  cfg.width = w;
  cfg.height = h;
  return cfg;
}

/// The deliveries at `tile` due by `cycle`, in a fresh vector.
std::vector<Delivery> due_at(Fabric& fabric, int tile, std::uint64_t cycle) {
  std::vector<Delivery> out;
  fabric.pop_due(tile, cycle, out);
  return out;
}

/// Tick until `tile` has a due delivery or `max_cycles` pass; returns the
/// deliveries (empty on timeout) and leaves *cycle at the stop point.
std::vector<Delivery> run_until_delivery(Fabric& fabric, int tile,
                                         std::uint64_t* cycle,
                                         std::uint64_t max_cycles = 200) {
  for (std::uint64_t end = *cycle + max_cycles; *cycle < end;) {
    fabric.tick(++*cycle);
    auto due = due_at(fabric, tile, *cycle);
    if (!due.empty()) return due;
  }
  return {};
}

// --- configuration and misuse ---------------------------------------------------

TEST(Fabric, RejectsBadConfig) {
  FabricConfig cfg;
  cfg.width = 0;
  EXPECT_THROW(Fabric{cfg}, FabricError);
  cfg = FabricConfig{};
  cfg.link_latency = 0;
  EXPECT_THROW(Fabric{cfg}, FabricError);
  cfg = FabricConfig{};
  cfg.flit_payload_bytes = 0;
  EXPECT_THROW(Fabric{cfg}, FabricError);
  cfg = FabricConfig{};
  cfg.fifo_depth = 0;
  EXPECT_THROW(Fabric{cfg}, FabricError);
}

TEST(Fabric, RejectsSelfSendAndBadTiles) {
  Fabric fabric(small_mesh());
  EXPECT_THROW(fabric.send_frame(1, 1, 0, {0xaa}, 0), FabricError);
  EXPECT_THROW(fabric.send_frame(-1, 0, 0, {0xaa}, 0), FabricError);
  EXPECT_THROW(fabric.send_frame(0, 4, 0, {0xaa}, 0), FabricError);
  EXPECT_THROW(due_at(fabric, 99, 0), FabricError);
}

// --- routing --------------------------------------------------------------------

TEST(Router, XYRoutesXFirst) {
  const Topology topo(TopologyKind::kMesh, 4, 4);
  Router r(1, 1, 4, &topo, topo.index(1, 1), RoutePolicy::kXY, nullptr);
  Flit f;
  f.dst_x = 3;
  f.dst_y = 0;
  EXPECT_EQ(r.route(f), kEast);  // X corrected before Y
  f.dst_x = 0;
  EXPECT_EQ(r.route(f), kWest);
  f.dst_x = 1;
  f.dst_y = 3;
  EXPECT_EQ(r.route(f), kSouth);
  f.dst_y = 0;
  EXPECT_EQ(r.route(f), kNorth);
  f.dst_y = 1;
  EXPECT_EQ(r.route(f), kLocal);
}

TEST(Fabric, CornerToCornerTakesManhattanHops) {
  // 4x4 mesh, (0,0) -> (3,3): 6 hops of 1 cycle each, plus injection and
  // ejection handling. The exact number matters less than its stability;
  // assert the latency is at least the Manhattan distance.
  FabricConfig cfg = small_mesh(4, 4);
  Fabric fabric(cfg);
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 15, /*opcode=*/7, {1, 2, 3}, cycle);
  auto due = run_until_delivery(fabric, 15, &cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].opcode, 7u);
  EXPECT_EQ(due[0].src_tile, 0);
  EXPECT_GE(due[0].arrive_cycle - due[0].send_cycle, 6u);

  // XY routing: the flit crossed the top row east, then column 3 south.
  EXPECT_GT(fabric.router(1).stats().flits_routed, 0u);
  EXPECT_GT(fabric.router(3).stats().flits_routed, 0u);
  EXPECT_EQ(fabric.router(4).stats().flits_routed, 0u);  // (0,1): never visited
  EXPECT_EQ(fabric.router(15).stats().flits_ejected, 1u);
}

TEST(Fabric, PayloadSegmentedAndReassembled) {
  FabricConfig cfg = small_mesh();
  cfg.flit_payload_bytes = 4;
  Fabric fabric(cfg);
  std::vector<std::uint8_t> payload(10);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 17);
  }
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 3, 42, payload, cycle);
  auto due = run_until_delivery(fabric, 3, &cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].payload, payload);  // bytes survive segmentation
  // 10 bytes at 4 per flit = 3 flits (head, body, tail).
  EXPECT_EQ(fabric.stats().flits_injected, 3u);
  EXPECT_TRUE(fabric.idle());
}

TEST(Fabric, EmptyPayloadStillOneFlit) {
  Fabric fabric(small_mesh());
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 1, 9, {}, cycle);
  auto due = run_until_delivery(fabric, 1, &cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_TRUE(due[0].payload.empty());
  EXPECT_EQ(fabric.stats().flits_injected, 1u);
}

TEST(Fabric, InOrderDeliveryPerSourceDestinationPair) {
  // Deterministic XY routing + FIFO links: frames of one (src, dst) pair
  // arrive in the order they were sent, even back-to-back.
  Fabric fabric(small_mesh());
  std::uint64_t cycle = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    fabric.send_frame(0, 3, /*opcode=*/100 + i, {static_cast<std::uint8_t>(i)},
                      cycle);
  }
  std::vector<std::uint32_t> seen;
  while (seen.size() < 8 && cycle < 500) {
    fabric.tick(++cycle);
    for (auto& d : due_at(fabric, 3, cycle)) seen.push_back(d.opcode);
  }
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 107u);
}

TEST(Fabric, ExtraDelayDefersDueCycle) {
  Fabric fabric(small_mesh());
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 1, 5, {1}, cycle, /*extra_delay=*/50);
  // The frame arrives long before cycle 50 but must not be due until then.
  for (; cycle < 49;) {
    fabric.tick(++cycle);
    EXPECT_TRUE(due_at(fabric, 1, cycle).empty());
  }
  fabric.tick(++cycle);
  fabric.tick(++cycle);  // cycle 51 > send + 50
  auto due = due_at(fabric, 1, cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_GE(due[0].due_cycle, 50u);
}

// --- credits and determinism ----------------------------------------------------

TEST(Fabric, CreditBackpressureStallsDeterministically) {
  // fifo_depth=1 and two sources hammering one destination: the shared
  // column link congests and credits stall injection. The run must still be
  // reproducible flit for flit — run the identical traffic twice and demand
  // identical delivery cycles and identical stats.
  auto run_once = [] {
    FabricConfig cfg = small_mesh();
    cfg.fifo_depth = 1;
    Fabric fabric(cfg);
    std::uint64_t cycle = 0;
    for (std::uint32_t i = 0; i < 6; ++i) {
      fabric.send_frame(0, 3, 10 + i, {1, 2, 3, 4, 5, 6, 7, 8}, cycle);
      fabric.send_frame(1, 3, 20 + i, {1, 2, 3, 4, 5, 6, 7, 8}, cycle);
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> deliveries;
    while (deliveries.size() < 12 && cycle < 2000) {
      fabric.tick(++cycle);
      for (auto& d : due_at(fabric, 3, cycle)) {
        deliveries.emplace_back(d.opcode, d.arrive_cycle);
      }
    }
    return std::tuple(deliveries, fabric.stats().to_table(), cycle);
  };

  auto [del1, table1, end1] = run_once();
  auto [del2, table2, end2] = run_once();
  ASSERT_EQ(del1.size(), 12u);
  EXPECT_EQ(del1, del2);      // cycle-exact reproducibility
  EXPECT_EQ(table1, table2);  // including every counter
  EXPECT_EQ(end1, end2);

  // Backpressure happened: with depth-1 FIFOs the congested run takes
  // longer than the same traffic on an uncongested (deep-buffer) fabric.
  FabricConfig deep = small_mesh();
  deep.fifo_depth = 64;
  Fabric fast(deep);
  std::uint64_t fast_cycle = 0;
  for (std::uint32_t i = 0; i < 6; ++i) {
    fast.send_frame(0, 3, 10 + i, {1, 2, 3, 4, 5, 6, 7, 8}, fast_cycle);
    fast.send_frame(1, 3, 20 + i, {1, 2, 3, 4, 5, 6, 7, 8}, fast_cycle);
  }
  std::size_t got = 0;
  while (got < 12 && fast_cycle < 2000) {
    fast.tick(++fast_cycle);
    got += due_at(fast, 3, fast_cycle).size();
  }
  ASSERT_EQ(got, 12u);
  EXPECT_GT(end1, fast_cycle);
}

TEST(Fabric, BufferHighWaterBoundedByDepth) {
  FabricConfig cfg = small_mesh();
  cfg.fifo_depth = 2;
  Fabric fabric(cfg);
  std::uint64_t cycle = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    fabric.send_frame(0, 3, i, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, cycle);
  }
  std::size_t got = 0;
  while (got < 10 && cycle < 2000) {
    fabric.tick(++cycle);
    got += due_at(fabric, 3, cycle).size();
  }
  ASSERT_EQ(got, 10u);
  for (int t = 0; t < fabric.tiles(); ++t) {
    // Per-port FIFOs never exceed depth; a router buffers at most
    // depth x ports flits, and with one traffic stream far fewer.
    EXPECT_LE(fabric.router(t).stats().buffer_high_water,
              static_cast<std::size_t>(cfg.fifo_depth * kPortCount));
  }
  EXPECT_GT(fabric.router(3).stats().buffer_high_water, 0u);
}

// --- statistics -----------------------------------------------------------------

TEST(LatencyHistogram, PowerOfTwoBuckets) {
  LatencyHistogram h;
  h.add(1);
  h.add(3);
  h.add(4);
  h.add(1000);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), (1.0 + 3.0 + 4.0 + 1000.0) / 4.0);
  EXPECT_EQ(h.buckets[0], 1u);  // 1
  EXPECT_EQ(h.buckets[1], 1u);  // 3 in [2,4)
  EXPECT_EQ(h.buckets[2], 1u);  // 4 in [4,8)
  EXPECT_EQ(h.buckets[9], 1u);  // 1000 in [512,1024)
}

TEST(Fabric, StatsExportAsJson) {
  Fabric fabric(small_mesh());
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 3, 1, {1, 2, 3, 4, 5}, cycle);
  (void)run_until_delivery(fabric, 3, &cycle);
  std::string json = cosim::to_json(fabric.stats()).dump();
  EXPECT_NE(json.find("\"mesh\":{\"width\":2,\"height\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"frames_delivered\":1"), std::string::npos);
  EXPECT_NE(json.find("\"routers\":["), std::string::npos);
  EXPECT_NE(json.find("\"links\":["), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
}

// --- cosim integration: mark-driven placement -----------------------------------

marks::MarkSet mesh_marks(int consumer_x, int consumer_y) {
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.set_class_mark("Consumer", marks::kTileX,
                   ScalarValue(std::int64_t{consumer_x}));
  m.set_class_mark("Consumer", marks::kTileY,
                   ScalarValue(std::int64_t{consumer_y}));
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  return m;
}

struct MeshCosim {
  MappedFixture fx;
  cosim::CoSimulation cosim;
  InstanceHandle consumer;
  InstanceHandle producer;

  explicit MeshCosim(marks::MarkSet m, cosim::CoSimConfig cfg = {})
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

TEST(MeshCosim, TileMarksSelectFabricInterconnect) {
  MeshCosim mesh(mesh_marks(1, 1));
  EXPECT_TRUE(mesh.cosim.has_fabric());
  EXPECT_EQ(mesh.cosim.fabric().width(), 2);

  // Without tile marks the legacy bus is chosen — the 1x2 degenerate case.
  marks::MarkSet legacy;
  legacy.mark_hardware("Consumer");
  MappedFixture fx(make_pipeline_domain(), std::move(legacy));
  cosim::CoSimulation bus_cosim(*fx.system);
  EXPECT_FALSE(bus_cosim.has_fabric());
}

TEST(MeshCosim, RoundTripOverTheMesh) {
  MeshCosim mesh(mesh_marks(1, 1));
  mesh.cosim.inject(mesh.producer, "kick");
  mesh.cosim.run();
  EXPECT_TRUE(mesh.cosim.quiescent());

  // Same functional outcome as every other mapping of this model.
  EXPECT_EQ(mesh.attr(mesh.producer, "Producer", "sent"), 1);
  EXPECT_EQ(mesh.attr(mesh.producer, "Producer", "acks"), 1);
  EXPECT_EQ(mesh.attr(mesh.consumer, "Consumer", "total"), 1);

  // And the traffic demonstrably crossed the mesh: work + done = 2 frames,
  // with nonzero flit counts at the tiles on the XY route.
  const FabricStats stats = mesh.cosim.fabric().stats();
  EXPECT_EQ(stats.frames_delivered, 2u);
  EXPECT_GT(stats.flits_injected, 0u);
  EXPECT_GT(stats.latency.count, 0u);
  EXPECT_GT(stats.routers[0].flits_routed, 0u);   // sw tile (0,0)
  EXPECT_GT(stats.routers[3].flits_ejected, 0u);  // consumer tile (1,1)
}

TEST(MeshCosim, ForgedDigestDetectedAtConnect) {
  MappedFixture fx(make_pipeline_domain(), mesh_marks(1, 1));
  cosim::CoSimConfig cfg;
  cfg.forged_sw_digest = "deadbeef";
  EXPECT_THROW(cosim::CoSimulation(*fx.system, cfg),
               cosim::InterfaceMismatch);
}

TEST(MeshCosim, PerfReportCarriesNocStats) {
  MeshCosim mesh(mesh_marks(1, 1));
  mesh.cosim.inject(mesh.producer, "kick");
  mesh.cosim.run();
  const obs::Snapshot report = mesh.cosim.report();
  EXPECT_EQ(report.at("run").at("interconnect").as_string(), "noc");
  const obs::JsonValue& noc = report.at("interconnect");
  EXPECT_EQ(noc.at("kind").as_string(), "noc");
  EXPECT_EQ(noc.at("frames_delivered").as_uint(), 2u);  // work + done
  EXPECT_GT(noc.at("flits_injected").as_uint(), 0u);
  EXPECT_EQ(noc.at("routers").size(), 4u);
}

TEST(MeshCosim, PlacementChangesLatencyNotBehavior) {
  // The acceptance bar of the NoC subsystem: moving a class's tileX/tileY
  // changes the measured frame latency but produces an equivalent execution
  // — verified against the abstract (unpartitioned) Executor both times.
  auto run_placement = [](int x, int y) {
    MeshCosim mesh(mesh_marks(x, y));
    for (int i = 0; i < 4; ++i) {
      mesh.cosim.inject(mesh.producer, "kick", {},
                        static_cast<std::uint64_t>(i) * 100);
    }
    mesh.cosim.run();
    std::vector<const runtime::Trace*> traces;
    for (const auto& hw : mesh.cosim.hw_domains()) {
      traces.push_back(&hw->executor().trace());
    }
    traces.push_back(&mesh.cosim.sw_executor().trace());

    // Reference execution of the same stimulus on the abstract model.
    runtime::Executor abs(*mesh.fx.compiled);
    auto c = abs.create("Consumer");
    auto p = abs.create_with("Producer", {{"sink", Value(c)}});
    for (int i = 0; i < 4; ++i) {
      abs.inject(p, "kick", {}, static_cast<std::uint64_t>(i) * 100);
    }
    abs.run_all(100000);

    verify::EquivalenceReport eq =
        verify::compare_executions(abs.trace(), traces);
    return std::tuple(eq.equivalent,
                      mesh.cosim.fabric().stats().latency.mean(),
                      mesh.attr(mesh.consumer, "Consumer", "total"));
  };

  // (1,1) is two hops from the software tile (0,0); (1,0) is one.
  auto [eq_far, latency_far, total_far] = run_placement(1, 1);
  auto [eq_near, latency_near, total_near] = run_placement(1, 0);

  EXPECT_TRUE(eq_far);
  EXPECT_TRUE(eq_near);
  EXPECT_EQ(total_far, total_near);       // identical behavior...
  EXPECT_GT(latency_far, latency_near);   // ...different cost
}

TEST(MeshCosim, HardwareToHardwareCrossTileSignals) {
  // Producer and Consumer both in hardware but on different tiles: their
  // signals must ride the NoC as wire messages (tiles share no memory), so
  // the synthesized interface covers hw->hw cross-tile generates too.
  marks::MarkSet m;
  m.mark_hardware("Consumer");
  m.mark_hardware("Producer");
  m.set_class_mark("Consumer", marks::kTileX, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Consumer", marks::kTileY, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Producer", marks::kTileX, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Producer", marks::kTileY, ScalarValue(std::int64_t{0}));
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));

  MeshCosim mesh(std::move(m));
  EXPECT_EQ(mesh.cosim.hw_domains().size(), 2u);
  mesh.cosim.inject(mesh.producer, "kick");
  mesh.cosim.run();
  EXPECT_EQ(mesh.attr(mesh.consumer, "Consumer", "total"), 1);
  EXPECT_EQ(mesh.attr(mesh.producer, "Producer", "acks"), 1);
  EXPECT_GE(mesh.cosim.fabric().stats().frames_delivered, 2u);
  EXPECT_EQ(mesh.cosim.sw_executor().dispatch_count(), 0u);
}

// --- Topology tables --------------------------------------------------------------

TEST(Topology, MeshShapeAndLinks) {
  const Topology topo(TopologyKind::kMesh, 3, 2);
  EXPECT_EQ(topo.kind(), TopologyKind::kMesh);
  EXPECT_EQ(topo.tiles(), 6);
  // 2*((w-1)*h + w*(h-1)) directed links.
  EXPECT_EQ(topo.link_count(), 2 * ((3 - 1) * 2 + 3 * (2 - 1)));
  // Edges clip: no neighbour off the grid.
  EXPECT_EQ(topo.neighbors(0, kWest), -1);
  EXPECT_EQ(topo.neighbors(0, kNorth), -1);
  EXPECT_EQ(topo.neighbors(0, kEast), 1);
  EXPECT_EQ(topo.neighbors(0, kSouth), 3);
  EXPECT_EQ(topo.min_hops(0, 5), 3);  // (0,0) -> (2,1)
}

TEST(Topology, TorusWrapsBothDimensions) {
  const Topology topo(TopologyKind::kTorus, 4, 4);
  EXPECT_EQ(topo.link_count(), 2 * 16 + 2 * 16);  // every tile: E/W + N/S
  EXPECT_EQ(topo.neighbors(0, kWest), 3);   // (0,0) wraps to (3,0)
  EXPECT_EQ(topo.neighbors(0, kNorth), 12); // (0,0) wraps to (0,3)
  // Wraparound halves the corner-to-corner distance: (0,0)->(3,3) is one
  // wrapped hop per dimension.
  EXPECT_EQ(topo.min_hops(0, 15), 2);
  // Routing goes the short way around: west, not three hops east.
  EXPECT_EQ(topo.route(RoutePolicy::kXY, 0, topo.index(3, 0),
                        RouteMode::kPrimary),
            kWest);
  // Ties (distance n/2 both ways) wrap forward deterministically.
  EXPECT_EQ(topo.route(RoutePolicy::kXY, 0, topo.index(2, 0),
                        RouteMode::kPrimary),
            kEast);
}

TEST(Topology, RingIsOneWrappedRow) {
  const Topology topo(TopologyKind::kRing, 6, 1);
  EXPECT_EQ(topo.link_count(), 2 * 6);
  EXPECT_EQ(topo.neighbors(0, kWest), 5);
  EXPECT_EQ(topo.neighbors(5, kEast), 0);
  EXPECT_EQ(topo.neighbors(2, kNorth), -1);  // no second dimension
  EXPECT_EQ(topo.neighbors(2, kSouth), -1);
  EXPECT_EQ(topo.min_hops(0, 4), 2);  // wrap west beats 4 hops east
}

TEST(Topology, ImpossibleShapesRejected) {
  EXPECT_THROW(Topology(TopologyKind::kTorus, 4, 1),
               std::invalid_argument);
  EXPECT_THROW(Topology(TopologyKind::kTorus, 1, 4),
               std::invalid_argument);
  EXPECT_THROW(Topology(TopologyKind::kRing, 4, 2),
               std::invalid_argument);
  FabricConfig cfg = small_mesh(4, 1);
  cfg.topology = TopologyKind::kTorus;
  EXPECT_THROW(Fabric{cfg}, FabricError);
  cfg = small_mesh(4, 2);
  cfg.topology = TopologyKind::kRing;
  EXPECT_THROW(Fabric{cfg}, FabricError);
}

/// The per-shape formulas the topology tables replaced, kept here as the
/// reference they must reproduce: a mesh clips at its edges, a torus wraps
/// both dimensions, a ring is one wrapped row, and a wrapped dimension
/// steps the shorter way round, ties toward kEast/kSouth.
struct ShapeRules {
  TopologyKind kind;
  int w, h;

  int x(int t) const { return t % w; }
  int y(int t) const { return t / w; }
  int at(int x, int y) const { return y * w + x; }
  static int fwd(int from, int to, int n) { return (to - from + n) % n; }

  int neighbors(int tile, Port dir) const {
    int tx = x(tile), ty = y(tile);
    if (kind == TopologyKind::kMesh) {
      switch (dir) {
        case kNorth: ty -= 1; break;
        case kSouth: ty += 1; break;
        case kEast: tx += 1; break;
        case kWest: tx -= 1; break;
        default: return -1;
      }
      if (tx < 0 || tx >= w || ty < 0 || ty >= h) return -1;
      return at(tx, ty);
    }
    switch (dir) {
      case kNorth:
        return kind == TopologyKind::kRing || h < 2 ? -1
                                                    : at(tx, (ty - 1 + h) % h);
      case kSouth:
        return kind == TopologyKind::kRing || h < 2 ? -1 : at(tx, (ty + 1) % h);
      case kEast: return w < 2 ? -1 : at((tx + 1) % w, ty);
      case kWest: return w < 2 ? -1 : at((tx - 1 + w) % w, ty);
      default: return -1;
    }
  }

  Port route(RoutePolicy policy, int src, int dst, RouteMode mode) const {
    bool xf = policy != RoutePolicy::kYX;
    if (mode == RouteMode::kFallback) xf = !xf;
    const int sx = x(src), sy = y(src), dx = x(dst), dy = y(dst);
    if (kind == TopologyKind::kMesh) {
      const Port xs = dx > sx ? kEast : dx < sx ? kWest : kLocal;
      const Port ys = dy > sy ? kSouth : dy < sy ? kNorth : kLocal;
      if (xf) return xs != kLocal ? xs : ys;
      return ys != kLocal ? ys : xs;
    }
    const int fx = fwd(sx, dx, w);
    const Port xs = fx == 0 ? kLocal : 2 * fx <= w ? kEast : kWest;
    if (kind == TopologyKind::kRing) return xs;
    const int fy = fwd(sy, dy, h);
    const Port ys = fy == 0 ? kLocal : 2 * fy <= h ? kSouth : kNorth;
    if (xf) return xs != kLocal ? xs : ys;
    return ys != kLocal ? ys : xs;
  }

  int min_hops(int a, int b) const {
    if (kind == TopologyKind::kMesh) {
      return std::abs(x(a) - x(b)) + std::abs(y(a) - y(b));
    }
    const int fx = fwd(x(a), x(b), w);
    const int fy = fwd(y(a), y(b), h);
    return std::min(fx, w - fx) + std::min(fy, h - fy);
  }

  int link_count() const {
    switch (kind) {
      case TopologyKind::kMesh: return 2 * ((w - 1) * h + w * (h - 1));
      case TopologyKind::kTorus:
        return (w > 1 ? 2 * w * h : 0) + (h > 1 ? 2 * w * h : 0);
      case TopologyKind::kRing: return w > 1 ? 2 * w : 0;
    }
    return -1;
  }
};

void expect_tables_match(TopologyKind kind, int w, int h) {
  SCOPED_TRACE(std::string(to_string(kind)) + " " + std::to_string(w) + "x" +
               std::to_string(h));
  const Topology topo(kind, w, h);
  const ShapeRules ref{kind, w, h};
  ASSERT_EQ(topo.tiles(), w * h);
  EXPECT_EQ(topo.link_count(), ref.link_count());
  int mismatches = 0;
  for (int a = 0; a < w * h; ++a) {
    for (int p = 0; p < kPortCount; ++p) {
      mismatches += topo.neighbors(a, static_cast<Port>(p)) !=
                    ref.neighbors(a, static_cast<Port>(p));
    }
    for (int b = 0; b < w * h; ++b) {
      mismatches += topo.min_hops(a, b) != ref.min_hops(a, b);
      for (RoutePolicy policy : {RoutePolicy::kXY, RoutePolicy::kYX,
                                 RoutePolicy::kAdaptive}) {
        for (RouteMode mode : {RouteMode::kPrimary, RouteMode::kFallback}) {
          mismatches +=
              topo.route(policy, a, b, mode) != ref.route(policy, a, b, mode);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Topology, TablesMatchShapeRules) {
  for (int w = 1; w <= 8; ++w) {
    for (int h = 1; h <= 8; ++h) {
      if (w * h >= 2) expect_tables_match(TopologyKind::kMesh, w, h);
      if (w >= 2 && h >= 2) expect_tables_match(TopologyKind::kTorus, w, h);
    }
  }
  for (int w = 1; w <= 16; ++w) expect_tables_match(TopologyKind::kRing, w, 1);
}

/// The round-robin scan the request masks replaced, over a model of the
/// router's input FIFOs (each head's output port): the first input from
/// `rr` on, skipping served ones, whose head wants `out`.
int scan_arbitrate(const std::array<std::deque<Port>, kPortCount>& heads,
                   int rr, Port out, unsigned served) {
  for (int i = 0; i < kPortCount; ++i) {
    const int p = (rr + i) % kPortCount;
    if (served & (1u << p)) continue;
    if (!heads[p].empty() && heads[p].front() == out) return p;
  }
  return -1;
}

TEST(Router, MaskArbitrationMatchesScan) {
  std::mt19937 rng(20261021);
  auto below = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int checks = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const TopologyKind kind =
        trial % 2 == 0 ? TopologyKind::kMesh : TopologyKind::kTorus;
    const RoutePolicy policy =
        trial % 4 < 2 ? RoutePolicy::kXY : RoutePolicy::kYX;
    const Topology topo(kind, 4, 4);
    const ShapeRules ref{kind, 4, 4};
    const int tile = below(16);
    const int depth = 1 + below(4);
    FlitPool pool;
    Router r(tile % 4, tile / 4, depth, &topo, tile, policy, &pool);
    std::array<std::deque<Port>, kPortCount> heads;  // routes, FIFO order
    std::array<int, kPortCount> rr{};
    auto compare = [&](const Router& router) {
      unsigned requested = 0;
      for (const auto& q : heads) {
        if (!q.empty()) requested |= 1u << q.front();
      }
      EXPECT_EQ(router.requested_outputs(), requested);
      for (int k = 0; k < 4; ++k) {
        const unsigned served = k == 0 ? 0u : static_cast<unsigned>(below(32));
        for (int out = 0; out < kPortCount; ++out) {
          const Port o = static_cast<Port>(out);
          EXPECT_EQ(router.arbitrate(o, served),
                    scan_arbitrate(heads, rr[out], o, served))
              << "out " << out << " served " << served << " rr " << rr[out];
          ++checks;
        }
      }
    };
    for (int step = 0; step < 200; ++step) {
      const int op = below(8);
      if (op < 4) {  // a flit arrives at a random input with room
        const int p = below(kPortCount);
        if (static_cast<int>(heads[p].size()) == depth) continue;
        Flit f;
        const int dst = below(16);
        f.dst_x = static_cast<std::uint8_t>(dst % 4);
        f.dst_y = static_cast<std::uint8_t>(dst / 4);
        f.route_mode = below(3) == 0 ? RouteMode::kFallback
                                     : RouteMode::kPrimary;
        r.accept(static_cast<Port>(p), pool.put(f));
        heads[p].push_back(ref.route(policy, tile, dst, f.route_mode));
      } else if (op < 6) {  // an input's head moves on
        const int p = below(kPortCount);
        if (heads[p].empty()) continue;
        (void)pool.take(r.take(static_cast<Port>(p)));
        heads[p].pop_front();
      } else if (op < 7) {  // a round-robin pointer moves
        const int out = below(kPortCount);
        const int winner = below(kPortCount);
        r.advance_rr(static_cast<Port>(out), winner);
        rr[out] = (winner + 1) % kPortCount;
      } else {  // a checkpoint round trip rebuilds the masks
        snap::Writer w;
        r.save_state(w);
        FlitPool restored_pool;
        Router restored(tile % 4, tile / 4, depth, &topo, tile, policy,
                        &restored_pool);
        snap::Reader rd(w.data());
        restored.load_state(rd);
        compare(restored);
      }
      compare(r);
    }
  }
  EXPECT_GT(checks, 20000);
}

TEST(Topology, StringRoundTrip) {
  for (TopologyKind k : {TopologyKind::kMesh, TopologyKind::kTorus,
                         TopologyKind::kRing}) {
    EXPECT_EQ(topology_from_string(to_string(k)), k);
  }
  for (RoutePolicy p : {RoutePolicy::kXY, RoutePolicy::kYX,
                        RoutePolicy::kAdaptive}) {
    EXPECT_EQ(routing_from_string(to_string(p)), p);
  }
  EXPECT_FALSE(topology_from_string("hypercube").has_value());
  EXPECT_FALSE(routing_from_string("west-first").has_value());
}

TEST(Fabric, TorusDeliversOverWraparound) {
  FabricConfig cfg = small_mesh(4, 4);
  cfg.topology = TopologyKind::kTorus;
  Fabric fabric(cfg);
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 15, /*opcode=*/9, {1, 2, 3}, cycle);
  auto due = run_until_delivery(fabric, 15, &cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].opcode, 9u);
  // Two wrapped hops instead of six across the grid: strictly faster than
  // the mesh's Manhattan path, which is what the bench sweep gates on.
  EXPECT_LT(due[0].arrive_cycle - due[0].send_cycle, 6u);
}

TEST(Fabric, RingDeliversBothWays) {
  FabricConfig cfg;
  cfg.width = 6;
  cfg.height = 1;
  cfg.topology = TopologyKind::kRing;
  Fabric fabric(cfg);
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 5, 1, {0xaa}, cycle);  // one hop west (wrap)
  fabric.send_frame(0, 2, 2, {0xbb}, cycle);  // two hops east
  auto due5 = run_until_delivery(fabric, 5, &cycle);
  ASSERT_EQ(due5.size(), 1u);
  auto due2 = due_at(fabric, 2, cycle);
  if (due2.empty()) due2 = run_until_delivery(fabric, 2, &cycle);
  ASSERT_EQ(due2.size(), 1u);
  EXPECT_EQ(due2[0].payload[0], 0xbb);
}

TEST(Fabric, YXMirrorsXY) {
  // Same traffic, mirrored policies: YX visits the column first. The
  // (1,0)/(0,1) visit pattern is the transpose of the XY test above.
  FabricConfig cfg = small_mesh(4, 4);
  cfg.routing = RoutePolicy::kYX;
  Fabric fabric(cfg);
  std::uint64_t cycle = 0;
  fabric.send_frame(0, 15, 7, {1, 2, 3}, cycle);
  auto due = run_until_delivery(fabric, 15, &cycle);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_GT(fabric.router(4).stats().flits_routed, 0u);   // (0,1): visited
  EXPECT_EQ(fabric.router(1).stats().flits_routed, 0u);   // (1,0): never
}

TEST(Fabric, AdaptiveDeliversAndIsDeterministic) {
  auto run = [](RoutePolicy policy) {
    FabricConfig cfg = small_mesh(4, 4);
    cfg.routing = policy;
    Fabric fabric(cfg);
    std::uint64_t cycle = 0;
    // Multi-flit frames from every tile to the transpose tile — enough
    // contention that adaptive decisions actually fire.
    for (int c = 0; c < 8; ++c) {
      for (int t = 0; t < 16; ++t) {
        const int dst = (t % 4) * 4 + t / 4;
        if (dst == t) continue;
        fabric.send_frame(t, dst, static_cast<std::uint32_t>(t * 8 + c),
                          {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, cycle);
      }
      fabric.tick(++cycle);
    }
    std::uint64_t delivered = 0;
    std::string digest;
    for (int guard = 0; guard < 4000 && !fabric.idle(); ++guard) {
      fabric.tick(++cycle);
      for (int t = 0; t < 16; ++t) {
        for (const Delivery& d : due_at(fabric, t, cycle)) {
          ++delivered;
          digest += std::to_string(t) + ":" + std::to_string(d.opcode) + ":" +
                    std::to_string(d.arrive_cycle) + ";";
        }
      }
    }
    EXPECT_EQ(delivered, 8u * 12u);  // 4 transpose fixed points skip
    return digest;
  };
  // Every flit of every frame arrived in order (reassembly would have
  // thrown otherwise), and two identical runs agree bit for bit.
  EXPECT_EQ(run(RoutePolicy::kAdaptive), run(RoutePolicy::kAdaptive));
}

// A checkpoint taken mid-flight — flits buffered in router FIFOs and NIC
// egress queues — restores into a fresh fabric that continues exactly like
// the uninterrupted one: the FIFO rings and the active-tile sets are
// rebuilt from the snapshot, not carried by the process.
void restore_mid_flight_case(RoutePolicy policy) {
  FabricConfig cfg = small_mesh(4, 4);
  cfg.topology = TopologyKind::kTorus;
  cfg.routing = policy;
  // Three-flit frames: from every tile every third cycle, and from two hot
  // tiles twice every cycle — six flits a cycle into NICs that inject one,
  // so their egress queues back up while flits queue in the FIFOs along
  // the way. The offer stops at cycle 16, light enough that the torus's
  // wraparound rings never close a credit cycle.
  auto offer = [](Fabric& f, std::uint64_t cycle) {
    auto send = [&](int t, int dst, int k) {
      if (dst == t) return;
      f.send_frame(t, dst, static_cast<std::uint32_t>(t * 256 + cycle * 4 + k),
                   {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, cycle, cycle % 3);
    };
    for (int t = 0; t < 16 && cycle % 3 == 0; ++t) {
      send(t, (t * 5 + static_cast<int>(cycle)) % 16, 0);
    }
    for (int k = 1; k <= 2; ++k) {
      send(0, (static_cast<int>(cycle) * 7 + k) % 16, k);
      send(9, (static_cast<int>(cycle) * 3 + k) % 16, k);
    }
  };
  auto continue_run = [&offer](Fabric& f, std::uint64_t cycle) {
    std::string log;
    for (int guard = 0; guard < 6000 && (cycle < 40 || !f.idle()); ++guard) {
      if (cycle < 16) offer(f, cycle);
      f.tick(++cycle);
      for (int t = 0; t < 16; ++t) {
        for (const Delivery& d : due_at(f, t, cycle)) {
          log += std::to_string(t) + ":" + std::to_string(d.src_tile) + ":" +
                 std::to_string(d.opcode) + ":" +
                 std::to_string(d.arrive_cycle) + ":" +
                 std::to_string(d.due_cycle) + ";";
        }
      }
    }
    snap::Writer end;
    f.save_state(end);
    return std::make_tuple(log, f.stats().to_table(), end.data());
  };

  Fabric a(cfg);
  std::uint64_t cycle = 0;
  while (cycle < 12) {
    offer(a, cycle);
    a.tick(++cycle);
  }
  // The save point is mid-flight: routers hold flits and NICs still have
  // flits to inject (fewer injected than the frames sent hold).
  std::size_t buffered = 0;
  for (int t = 0; t < 16; ++t) buffered += a.router(t).buffered();
  EXPECT_GT(buffered, 0u);
  EXPECT_LT(a.stats().flits_injected, 3 * a.stats().frames_sent);
  snap::Writer at_save;
  a.save_state(at_save);

  Fabric b(cfg);
  snap::Reader r(at_save.data());
  b.load_state(r);
  const auto [log_a, table_a, end_a] = continue_run(a, cycle);
  const auto [log_b, table_b, end_b] = continue_run(b, cycle);
  EXPECT_TRUE(a.idle());
  EXPECT_EQ(a.stats().frames_delivered, a.stats().frames_sent);
  EXPECT_EQ(log_b, log_a);
  EXPECT_EQ(table_b, table_a);
  EXPECT_TRUE(end_b == end_a) << "final snapshot bytes differ";
}

TEST(Fabric, RestoreMidFlightContinuesIdenticallyXY) {
  restore_mid_flight_case(RoutePolicy::kXY);
}

TEST(Fabric, RestoreMidFlightContinuesIdenticallyAdaptive) {
  restore_mid_flight_case(RoutePolicy::kAdaptive);
}

// --- traffic engines ------------------------------------------------------------

TrafficSpec sweep_spec(TrafficPattern pattern, std::uint64_t seed = 42) {
  TrafficSpec spec;
  spec.pattern = pattern;
  spec.seed = seed;
  spec.offered_load = 0.2;
  spec.payload_bytes = 6;
  spec.record = true;
  return spec;
}

/// Drive `fabric` with `gen` for `cycles` injection cycles plus drain, and
/// fingerprint every delivery.
std::string drive(Fabric& fabric, TrafficGen& gen, int cycles) {
  const int tiles = fabric.topology().tiles();
  std::uint64_t cycle = 0;
  std::string digest;
  auto drain = [&] {
    for (int t = 0; t < tiles; ++t) {
      for (const Delivery& d : due_at(fabric, t, cycle)) {
        digest += std::to_string(t) + ":" + std::to_string(d.opcode) + ":" +
                  std::to_string(d.arrive_cycle) + ":" +
                  std::to_string(d.payload.size()) + ";";
      }
    }
  };
  for (int c = 0; c < cycles; ++c) {
    gen.tick(fabric, cycle);
    fabric.tick(++cycle);
    drain();
  }
  for (int guard = 0; guard < 4000 && !fabric.idle(); ++guard) {
    fabric.tick(++cycle);
    drain();
  }
  return digest;
}

TEST(Traffic, GeneratorIsSeedDeterministic) {
  for (TrafficPattern pattern :
       {TrafficPattern::kUniform, TrafficPattern::kHotspot,
        TrafficPattern::kTranspose, TrafficPattern::kBursty}) {
    Fabric f1(small_mesh(4, 4)), f2(small_mesh(4, 4));
    TrafficGen g1(sweep_spec(pattern), f1.topology());
    TrafficGen g2(sweep_spec(pattern), f2.topology());
    EXPECT_EQ(drive(f1, g1, 64), drive(f2, g2, 64))
        << "pattern " << to_string(pattern);
    EXPECT_EQ(g1.frames_sent(), g2.frames_sent());
    EXPECT_GT(g1.frames_sent(), 0u);
  }
  // A different seed is a different workload.
  Fabric f1(small_mesh(4, 4)), f2(small_mesh(4, 4));
  TrafficGen g1(sweep_spec(TrafficPattern::kUniform, 42), f1.topology());
  TrafficGen g2(sweep_spec(TrafficPattern::kUniform, 43), f2.topology());
  EXPECT_NE(drive(f1, g1, 64), drive(f2, g2, 64));
}

TEST(Traffic, HotspotConcentratesOnHotTile) {
  Fabric fabric(small_mesh(4, 4));
  TrafficSpec spec = sweep_spec(TrafficPattern::kHotspot);
  spec.hotspot_tile = 5;
  spec.hotspot_fraction = 0.8;
  TrafficGen gen(spec, fabric.topology());
  (void)drive(fabric, gen, 128);
  std::uint64_t to_hot = 0;
  for (const TrafficEvent& e : gen.trace()) to_hot += e.dst == 5 ? 1 : 0;
  ASSERT_GT(gen.trace().size(), 0u);
  // ~80% + the uniform share; anything over half proves concentration.
  EXPECT_GT(to_hot * 2, gen.trace().size());
}

TEST(Traffic, ReplayReproducesTheGenerator) {
  // Record a generator run, then drive a fresh fabric from the recording:
  // deliveries must match bit for bit — the property that makes traces a
  // portable workload format across topologies.
  Fabric f1(small_mesh(4, 4));
  TrafficGen gen(sweep_spec(TrafficPattern::kUniform), f1.topology());
  const std::string generated = drive(f1, gen, 64);
  ASSERT_GT(gen.trace().size(), 0u);

  TraceReplay replay(gen.trace());
  Fabric f2(small_mesh(4, 4));
  std::uint64_t cycle = 0;
  std::string replayed;
  auto drain = [&] {
    for (int t = 0; t < 16; ++t) {
      for (const Delivery& d : due_at(f2, t, cycle)) {
        replayed += std::to_string(t) + ":" + std::to_string(d.opcode) + ":" +
                    std::to_string(d.arrive_cycle) + ":" +
                    std::to_string(d.payload.size()) + ";";
      }
    }
  };
  for (int c = 0; c < 64; ++c) {
    replay.tick(f2, cycle);
    f2.tick(++cycle);
    drain();
  }
  for (int guard = 0; guard < 4000 && !f2.idle(); ++guard) {
    f2.tick(++cycle);
    drain();
  }
  EXPECT_TRUE(replay.done());
  EXPECT_EQ(replayed, generated);
}

TEST(Traffic, TraceTextRoundTrips) {
  Fabric fabric(small_mesh(2, 2));
  TrafficGen gen(sweep_spec(TrafficPattern::kUniform), fabric.topology());
  (void)drive(fabric, gen, 32);
  TraceReplay replay(gen.trace());
  const std::string text = replay.to_text();

  std::string error;
  auto parsed = TraceReplay::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_text(), text);
  ASSERT_EQ(parsed->events().size(), replay.events().size());
  for (std::size_t i = 0; i < replay.events().size(); ++i) {
    EXPECT_EQ(parsed->events()[i].cycle, replay.events()[i].cycle);
    EXPECT_EQ(parsed->events()[i].opcode, replay.events()[i].opcode);
  }
}

TEST(Traffic, TraceParseDiagnosesBadLines) {
  std::string error;
  EXPECT_FALSE(TraceReplay::parse("0 1 2 3", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(TraceReplay::parse("0 1 2 3 4 5", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(TraceReplay::parse("0 -1 2 3 4", &error).has_value());

  auto ok = TraceReplay::parse("# comment\n\n3 0 1 7 4\n1 1 0 9 2\n");
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->events().size(), 2u);
  EXPECT_EQ(ok->events()[0].cycle, 1u);  // sorted by cycle
}

// --- pre-redesign golden fingerprints -------------------------------------------
//
// Captured from the last commit before the Topology interface existed, by
// running exactly this workload on the old hard-wired mesh. The redesign's
// contract is that the default mesh+XY fabric is byte-identical — stats,
// delivery order, payload bytes, and the printed table all hash to the
// same values.

struct GoldenResult {
  FabricStats stats;
  std::uint64_t popped = 0;
  std::uint64_t pop_hash = 0;
  std::uint64_t table_hash = 0;
  FabricFaultStats faults;
  /// The fabric's checkpoint at the end of the offer phase, mid-flight:
  /// router FIFOs, NIC egress queues and link-borne flits all hold flits.
  std::uint64_t state_hash = 0;
};

GoldenResult run_golden(const FabricConfig& cfg) {
  Fabric fab(cfg);
  std::uint64_t cycle = 0;
  for (int c = 0; c < 16; ++c) {
    for (int t = 0; t < 16; ++t) {
      const int x = t % 4, y = t / 4;
      const int dst = x * 4 + y;  // transpose
      if (dst == t) continue;
      std::vector<std::uint8_t> payload;
      const int n = (t * 7 + c) % 13 + 1;
      for (int i = 0; i < n; ++i) {
        payload.push_back(static_cast<std::uint8_t>(t * 31 + c * 7 + i));
      }
      fab.send_frame(t, dst, static_cast<std::uint32_t>(t * 16 + c), payload,
                     cycle, static_cast<std::uint64_t>(c % 3));
    }
    fab.tick(++cycle);
  }
  GoldenResult g;
  snap::Writer mid;
  fab.save_state(mid);
  g.state_hash =
      fnv1a(std::string(mid.data().begin(), mid.data().end()));
  g.pop_hash = 1469598103934665603ull;
  for (int guard = 0; guard < 2000 && !fab.idle(); ++guard) {
    fab.tick(++cycle);
    for (int t = 0; t < 16; ++t) {
      for (const Delivery& d : due_at(fab, t, cycle)) {
        ++g.popped;
        std::string key = std::to_string(t) + ":" +
                          std::to_string(d.src_tile) + ":" +
                          std::to_string(d.opcode) + ":" +
                          std::to_string(d.arrive_cycle) + ":" +
                          std::to_string(d.due_cycle) + ":" +
                          std::to_string(d.payload.size());
        for (auto b : d.payload) key += "," + std::to_string(b);
        g.pop_hash ^= fnv1a(key);
      }
    }
  }
  g.stats = fab.stats();
  g.table_hash = fnv1a(fab.stats().to_table());
  g.faults = fab.fault_stats();
  return g;
}

GoldenResult run_golden(fault::Plan* plan) {
  FabricConfig cfg = small_mesh(4, 4);
  cfg.fault = plan;
  return run_golden(cfg);
}

TEST(Golden, DefaultMeshXYByteIdentical) {
  GoldenResult g = run_golden(nullptr);
  EXPECT_EQ(g.stats.cycles, 108u);
  EXPECT_EQ(g.stats.frames_sent, 192u);
  EXPECT_EQ(g.stats.frames_delivered, 192u);
  EXPECT_EQ(g.stats.flits_injected, 413u);
  EXPECT_EQ(g.stats.payload_bytes, 1338u);
  EXPECT_EQ(g.stats.latency.count, 192u);
  EXPECT_EQ(g.stats.latency.total, 7110u);
  EXPECT_EQ(g.stats.latency.min, 3u);
  EXPECT_EQ(g.stats.latency.max, 93u);
  EXPECT_EQ(g.popped, 192u);
  EXPECT_EQ(g.pop_hash, 0x6e86578a803c3a6eull);
  EXPECT_EQ(g.table_hash, 0x90a386916dea8f47ull);
}

TEST(Golden, FaultyMeshXYByteIdentical) {
  // Same workload under the resilient NIC (CRC + ack/retransmit with the
  // primary/fallback detour): the typed RouteMode plumbing must reproduce
  // the old uint8_t route_mode byte for byte.
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.flit_drop = 0.02;
  spec.flit_corrupt = 0.01;
  spec.link_down = 0.005;
  fault::Plan plan(spec);
  GoldenResult g = run_golden(&plan);
  EXPECT_EQ(g.stats.cycles, 2016u);
  EXPECT_EQ(g.stats.frames_delivered, 188u);
  EXPECT_EQ(g.stats.flits_injected, 591u);
  EXPECT_EQ(g.stats.latency.total, 15969u);
  EXPECT_EQ(g.stats.latency.max, 1524u);
  EXPECT_EQ(g.popped, 188u);
  EXPECT_EQ(g.pop_hash, 0x2975b046bbe8b8bdull);
  EXPECT_EQ(g.table_hash, 0x2cc48c1147185c25ull);
  EXPECT_EQ(g.faults.flits_dropped, 33u);
  EXPECT_EQ(g.faults.flits_corrupted, 18u);
  EXPECT_EQ(g.faults.link_down_events, 427u);
  EXPECT_EQ(g.faults.link_down_drops, 63u);
  EXPECT_EQ(g.faults.crc_rejects, 14u);
  EXPECT_EQ(g.faults.orphan_flits, 40u);
  EXPECT_EQ(g.faults.retransmissions, 69u);
  EXPECT_EQ(g.faults.acks_delivered, 188u);
  EXPECT_EQ(g.faults.frames_lost, 0u);
  EXPECT_EQ(g.faults.tainted_delivered, 0u);
}

// The same transpose workload on every other shape and policy, at the
// default 4-byte and a 32-byte link, and under the resilient NIC wherever
// the configuration is legal (adaptive routing refuses NoC faults). A
// torus under this load can close a credit cycle and never drain (see
// topology.hpp); the run then stops at its guard, and the pin covers that
// too. Each pin is stats, delivery order and payloads, the printed table,
// the mid-flight checkpoint bytes and the fault counters.

struct GoldenPin {
  std::uint64_t cycles, delivered, flits, popped;
  std::uint64_t pop_hash, table_hash, state_hash, fault_hash;
};

void expect_golden(TopologyKind kind, int width, int height,
                   RoutePolicy routing, int flit_bytes, bool faulty,
                   const GoldenPin& want) {
  SCOPED_TRACE(std::string(to_string(kind)) + " " + to_string(routing) +
               " flitBytes=" + std::to_string(flit_bytes) +
               (faulty ? " faulty" : " fault-free"));
  FabricConfig cfg = small_mesh(width, height);
  cfg.topology = kind;
  cfg.routing = routing;
  cfg.flit_payload_bytes = flit_bytes;
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.flit_drop = 0.02;
  spec.flit_corrupt = 0.01;
  spec.link_down = 0.005;
  fault::Plan plan(spec);
  if (faulty) cfg.fault = &plan;
  const GoldenResult g = run_golden(cfg);
  const GoldenPin got{g.stats.cycles,
                      g.stats.frames_delivered,
                      g.stats.flits_injected,
                      g.popped,
                      g.pop_hash,
                      g.table_hash,
                      g.state_hash,
                      fnv1a(cosim::to_json(g.faults).dump())};
  EXPECT_EQ(g.stats.frames_sent, 192u);
  EXPECT_EQ(g.popped, g.stats.frames_delivered);
  EXPECT_TRUE(std::tie(got.cycles, got.delivered, got.flits, got.popped,
                       got.pop_hash, got.table_hash, got.state_hash,
                       got.fault_hash) ==
              std::tie(want.cycles, want.delivered, want.flits, want.popped,
                       want.pop_hash, want.table_hash, want.state_hash,
                       want.fault_hash))
      << std::hex << "got {" << std::dec << got.cycles << ", "
      << got.delivered << ", " << got.flits << ", " << got.popped << std::hex
      << ", 0x" << got.pop_hash << "ull, 0x" << got.table_hash << "ull, 0x"
      << got.state_hash << "ull, 0x" << got.fault_hash << "ull}";
}

TEST(Golden, MeshXYWideFlitsByteIdentical) {
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kXY, 32, false,
                {52, 192, 192, 192, 0x3d8fa9e9aa42bbe0ull, 0x16a2d883d7c134a7ull, 0xef6e2b912973351bull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kXY, 32, true,
                {668, 192, 225, 192, 0x81cdddb3415790ceull, 0xb9b5b62cf99224b1ull, 0x75020fd81f4d7b73ull, 0xc38ff9458a73d120ull});
}

TEST(Golden, MeshYXByteIdentical) {
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kYX, 4, false,
                {112, 192, 413, 192, 0x19bc6235088f0cull, 0x95b58730e3d53653ull, 0xacf5fca4ef7be89eull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kYX, 4, true,
                {2016, 191, 655, 191, 0x45e0427a5a2eec5full, 0x3ba3d539a3409cf8ull, 0x5a2e190adea75b1ull, 0x3a081fc174f0f53bull});
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kYX, 32, false,
                {52, 192, 192, 192, 0x86c1eb258784f9f0ull, 0x1a324602adfd3804ull, 0x831d34c3ad98beaeull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kYX, 32, true,
                {1298, 192, 252, 192, 0xc22216535fcdeb9aull, 0xd9c0254d25013bd2ull, 0x8fe855bc527626f3ull, 0x5f83aefc677a9bd1ull});
}

TEST(Golden, MeshAdaptiveByteIdentical) {
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kAdaptive, 4, false,
                {61, 192, 413, 192, 0xbef2e314972dbbfeull, 0xf51071aa009af8adull, 0x2db85e6be04f14bull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kMesh, 4, 4, RoutePolicy::kAdaptive, 32, false,
                {28, 192, 192, 192, 0xfa0bbd850cb18830ull, 0xbdc2e837ff2c293bull, 0xe1864c635f006d7cull, 0x52fbea98c23d0a3dull});
}

TEST(Golden, TorusXYByteIdentical) {
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kXY, 4, false,
                {74, 192, 413, 192, 0xc95603556fac5aa4ull, 0x6dbeb118a759a758ull, 0x28b153a0e6339d57ull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kXY, 4, true,
                {2016, 192, 561, 192, 0x221cd30fac14652eull, 0x3028c7bd541d4e35ull, 0x51907bb8fae8e272ull, 0x2de7d301de4d847full});
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kXY, 32, false,
                {35, 192, 192, 192, 0x15c092a28f5b9928ull, 0x498f2535e0704cddull, 0x8b73fd45264c7b2dull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kXY, 32, true,
                {275, 192, 216, 192, 0x985807643788fb5eull, 0x707e04459002f7eaull, 0x9daaedd5904d487cull, 0xfb904e73d9e4165bull});
}

TEST(Golden, TorusAdaptiveByteIdentical) {
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kAdaptive, 4, false,
                {52, 192, 413, 192, 0x854d7b5df65ea552ull, 0xfb469a7ef1a01711ull, 0x2a92d563f6835fa4ull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kTorus, 4, 4, RoutePolicy::kAdaptive, 32, false,
                {30, 192, 192, 192, 0xb94c424ad4cdb368ull, 0x69666288d802d1f5ull, 0x2234158e5c891124ull, 0x52fbea98c23d0a3dull});
}

TEST(Golden, Ring16ByteIdentical) {
  expect_golden(TopologyKind::kRing, 16, 1, RoutePolicy::kXY, 4, false,
                {2016, 67, 322, 67, 0x10f5277b3c6b170full, 0xcba6ee607eacd7a2ull, 0x9df7cd3cf1b9379ull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kRing, 16, 1, RoutePolicy::kXY, 4, true,
                {2016, 188, 789, 188, 0x4ec3007a381ceb95ull, 0x844aae554c3a4ce2ull, 0x5d3bd6865dca26ecull, 0x9c9da17b0921176cull});
  expect_golden(TopologyKind::kRing, 16, 1, RoutePolicy::kXY, 32, false,
                {49, 192, 192, 192, 0x2cbc212588c03ab4ull, 0x53546782634ebb5dull, 0xbae441df91268686ull, 0x52fbea98c23d0a3dull});
  expect_golden(TopologyKind::kRing, 16, 1, RoutePolicy::kXY, 32, true,
                {1475, 192, 266, 192, 0xd4b949bbfb8163a6ull, 0x37943395f89fad96ull, 0xa5b5cc7b00a003d6ull, 0x2bd7d5e4521fbcc1ull});
}

}  // namespace
}  // namespace xtsoc::noc
