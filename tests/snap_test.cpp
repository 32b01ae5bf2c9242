// xtsoc::snap — versioned checkpoint/restore.
//
// The contracts under test, in order:
//   * the determinism grid: save at cycle N, restore into a FRESH
//     elaboration, continue to M — every observable of observe.hpp is
//     byte-identical to the uninterrupted run, at threads 1/2/8 x window
//     0/1/L x faults on/off, plus a windowed 8x8 mesh saved mid-window;
//   * a snapshot is config-portable: saved under one (threads, window)
//     configuration, it restores under any other and still reproduces the
//     serial run byte for byte;
//   * fault::Plan RNG positions ride the snapshot ('F' section): a faulty
//     run resumes mid-stream, not from a reseeded stream;
//   * an obs registry adds no byte to a checkpoint, and the 'O' section of
//     obs counters that older builds wrote is skipped on restore;
//   * rejection: truncated files, bit flips (CRC), version bumps, wrong
//     magic, digest mismatches (a different MappedSystem), forged
//     element counts and a forged kernel shape or clock schedule all throw
//     SnapError instead of deserializing garbage;
//   * fuzzing: seeded byte mutations of a checkpoint (CRC recomputed) are
//     each refused with SnapError or restore and render report();
//   * inspect() reads the header without a CoSimulation;
//   * warm campaigns (snap/warm.hpp): one checkpoint + per-seed fresh
//     streams produces the exact cold-campaign document, and the
//     window-start precondition is enforced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/common/rng.hpp"
#include "xtsoc/jit/jit.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/obs/registry.hpp"
#include "xtsoc/snap/snapshot.hpp"
#include "xtsoc/snap/warm.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::snap {
namespace {

using cosim::CoSimConfig;
using cosim::CoSimulation;
using runtime::Value;
using testing::MappedFixture;
using testing::Observed;
using testing::Recorder;
using testing::expect_identical;
using xtuml::DataType;
using xtuml::ScalarValue;

// --- workload ------------------------------------------------------------------

/// A self-sustaining ring of hardware nodes ping-ponging forever (each
/// tick re-arms itself), so there is traffic in flight at every candidate
/// checkpoint cycle. The stock ring has three nodes on a 2x2 mesh.
std::unique_ptr<xtuml::Domain> make_ring_domain(int nodes = 3) {
  xtuml::DomainBuilder b("Ring");
  for (int i = 0; i < nodes; ++i) b.cls("Node" + std::to_string(i));
  for (int i = 0; i < nodes; ++i) {
    std::string peer = "Node" + std::to_string((i + 1) % nodes);
    b.edit("Node" + std::to_string(i))
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

marks::MarkSet ring_marks() {
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};  // sw owns (0,0)
  for (int i = 0; i < 3; ++i) {
    std::string cls = "Node" + std::to_string(i);
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

/// The ring on a full 8x8 mesh: 63 nodes, one per tile after the CPU's,
/// with a 4-cycle link so the window opens to L = 4. Every odd node runs at
/// half rate (clockDomain 2), so its busy wire toggles every cycle and a
/// stale changed-only replay shows in the VCD and in wire_commits.
marks::MarkSet mesh8x8_marks() {
  marks::MarkSet m;
  for (int i = 0; i < 63; ++i) {
    std::string cls = "Node" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     ScalarValue(std::int64_t{(i + 1) % 8}));
    m.set_class_mark(cls, marks::kTileY,
                     ScalarValue(std::int64_t{(i + 1) / 8}));
    if (i % 2 == 1) {
      m.set_class_mark(cls, marks::kClockDomain, ScalarValue(std::int64_t{2}));
    }
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{8}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{8}));
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
  return m;
}

/// Create the ring population and kick every node once.
void boot_ring(CoSimulation& cs, int nodes = 3) {
  std::vector<runtime::InstanceHandle> h;
  for (int i = 0; i < nodes; ++i) {
    h.push_back(cs.create("Node" + std::to_string(i)));
  }
  for (int i = 0; i < nodes; ++i) {
    // peer is the third declared attribute (acc, pings, peer).
    cs.executor_of(h[static_cast<std::size_t>(i)].cls)
        .database()
        .set_attr(h[static_cast<std::size_t>(i)], AttributeId(2),
                  Value(h[static_cast<std::size_t>((i + 1) % nodes)]));
    cs.inject(h[static_cast<std::size_t>(i)], "tick");
  }
}

fault::FaultSpec noisy_spec() {
  fault::FaultSpec s;
  s.seed = 7;
  s.flit_drop = 0.05;
  s.flit_corrupt = 0.05;
  return s;
}

// --- byte-for-byte capture -----------------------------------------------------

/// Run `more_cycles` and capture every observable (see observe.hpp). The
/// executor traces are cumulative (they ride the snapshot), so they cover
/// the full history either way; the VCD writer is attached at the segment
/// start in BOTH arms, so its samples line up cycle for cycle.
Observed run_tail(CoSimulation& cs, std::uint64_t more_cycles) {
  Recorder rec(cs);
  cs.run_cycles(more_cycles);
  return rec.take();
}

constexpr std::uint64_t kSaveAt = 300;
constexpr std::uint64_t kContinue = 400;

/// The grid's workloads: the stock 2x2 ring, or the windowed 8x8 mesh
/// saved at cycle 62 — inside a window of L = 4 — and continued 36 cycles.
enum class Shape { kRing2x2, kMesh8x8 };

/// One grid cell: straight-through vs save-at-N + restore-into-fresh.
void grid_case(int threads, int window, bool faults,
               Shape shape = Shape::kRing2x2) {
  const bool mesh = shape == Shape::kMesh8x8;
  const std::string what = "threads=" + std::to_string(threads) +
                           " window=" + std::to_string(window) +
                           " faults=" + (faults ? "on" : "off") +
                           (mesh ? " mesh=8x8" : "");
  const int nodes = mesh ? 63 : 3;
  const std::uint64_t save_at = mesh ? 62 : kSaveAt;
  const std::uint64_t more = mesh ? 36 : kContinue;
  MappedFixture fx(make_ring_domain(nodes),
                   mesh ? mesh8x8_marks() : ring_marks());
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;

  fault::Plan plan_a(faults ? noisy_spec() : fault::FaultSpec{});
  cfg.fault = faults ? &plan_a : nullptr;
  CoSimulation a(*fx.system, cfg);
  boot_ring(a, nodes);
  a.run_cycles(save_at);
  const std::vector<std::uint8_t> bytes = save(a, cfg.fault, nullptr);
  Observed ta = run_tail(a, more);

  fault::Plan plan_b(faults ? noisy_spec() : fault::FaultSpec{});
  cfg.fault = faults ? &plan_b : nullptr;
  CoSimulation b(*fx.system, cfg);  // fresh elaboration, no boot: state loads
  const SnapshotInfo info =
      restore(b, bytes.data(), bytes.size(), cfg.fault, nullptr);
  EXPECT_EQ(info.cycle, save_at) << what;
  EXPECT_EQ(info.version, kSnapVersion) << what;
  EXPECT_EQ(info.has_fault_streams, faults) << what;
  Observed tb = run_tail(b, more);

  expect_identical(ta, tb, what);
}

// --- the determinism grid ------------------------------------------------------

TEST(SnapGrid, Threads1Window0) { grid_case(1, 0, false); }
TEST(SnapGrid, Threads1Window1) { grid_case(1, 1, false); }
TEST(SnapGrid, Threads1WindowL) { grid_case(1, 4, false); }
TEST(SnapGrid, Threads2Window0) { grid_case(2, 0, false); }
TEST(SnapGrid, Threads2WindowL) { grid_case(2, 4, false); }
TEST(SnapGrid, Threads8Window1) { grid_case(8, 1, false); }
TEST(SnapGrid, Threads8WindowL) { grid_case(8, 4, false); }
TEST(SnapGrid, FaultsThreads1Window0) { grid_case(1, 0, true); }
TEST(SnapGrid, FaultsThreads1Window1) { grid_case(1, 1, true); }
TEST(SnapGrid, FaultsThreads1WindowL) { grid_case(1, 4, true); }
TEST(SnapGrid, FaultsThreads2Window0) { grid_case(2, 0, true); }
TEST(SnapGrid, FaultsThreads2WindowL) { grid_case(2, 4, true); }
TEST(SnapGrid, FaultsThreads8Window1) { grid_case(8, 1, true); }
TEST(SnapGrid, FaultsThreads8WindowL) { grid_case(8, 4, true); }
// The windowed replay re-issues only wire writes that change a value, so
// a restore must re-seed each domain's last-staged values from the
// restored kernel; a stale seed drops a busy 1 -> 0 write on cycle 63,
// which the VCD and the report's SimStats::wire_commits both show.
TEST(SnapGrid, Mesh8x8Threads2WindowL) {
  grid_case(2, 4, false, Shape::kMesh8x8);
}

// A snapshot is engine-portable: the saved bytes record model state, not
// execution machinery, so a run saved under the AST walker restores into
// a jit-engined co-simulation (and vice versa) and continues byte for
// byte, op counters included. A stale or mismatched jitted object cannot
// corrupt this path: it is rejected at load time by its embedded digest
// (jit_test covers that rejection), leaving the restore on the walker.
void cross_engine_case(runtime::ActionEngine save_engine,
                       runtime::ActionEngine restore_engine,
                       const std::string& what) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  jit::JitOptions jopts;
  std::error_code ec;
  jopts.cache_dir =
      (std::filesystem::temp_directory_path(ec) / "xtsoc-jit-gtest").string();
  jit::JitResult jr = jit::compile(*fx.compiled, jopts);
  ASSERT_NE(jr.module, nullptr) << jr.reason;
  auto config_for = [&](runtime::ActionEngine engine) {
    CoSimConfig cfg;
    cfg.engine = engine;
    if (engine == runtime::ActionEngine::kJit) cfg.compiled = jr.module.get();
    return cfg;
  };

  CoSimulation a(*fx.system, config_for(save_engine));
  boot_ring(a);
  a.run_cycles(kSaveAt);
  const std::vector<std::uint8_t> bytes = save(a, nullptr, nullptr);
  Observed ta = run_tail(a, kContinue);

  CoSimulation b(*fx.system, config_for(restore_engine));
  const SnapshotInfo info = restore(b, bytes.data(), bytes.size(), nullptr,
                                    nullptr);
  EXPECT_EQ(info.cycle, kSaveAt) << what;
  Observed tb = run_tail(b, kContinue);
  expect_identical(ta, tb, what);
}

// The two tests keep the names they had when the reference engine was the
// bytecode VM; "Vm" is now the walker.
TEST(SnapGrid, CrossEngineVmToJit) {
  cross_engine_case(runtime::ActionEngine::kAstWalk,
                    runtime::ActionEngine::kJit, "saved ast, restored jit");
}

TEST(SnapGrid, CrossEngineJitToVm) {
  cross_engine_case(runtime::ActionEngine::kJit,
                    runtime::ActionEngine::kAstWalk, "saved jit, restored ast");
}

// A snapshot is config-portable: saved serial, restored parallel — the
// continuation still equals the serial run byte for byte.
TEST(SnapGrid, SnapshotPortsAcrossConfigurations) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  fault::Plan plan_a(noisy_spec());
  CoSimConfig serial;
  serial.fault = &plan_a;
  CoSimulation a(*fx.system, serial);
  boot_ring(a);
  a.run_cycles(kSaveAt);
  const std::vector<std::uint8_t> bytes = save(a, &plan_a, nullptr);
  Observed ta = run_tail(a, kContinue);

  for (auto [threads, window] : {std::pair{2, 4}, std::pair{8, 0}}) {
    fault::Plan plan_b(noisy_spec());
    CoSimConfig cfg;
    cfg.threads = threads;
    cfg.window = window;
    cfg.fault = &plan_b;
    CoSimulation b(*fx.system, cfg);
    restore(b, bytes.data(), bytes.size(), &plan_b, nullptr);
    Observed tb = run_tail(b, kContinue);
    const std::string what =
        "saved at threads=1/window=0, restored at threads=" +
        std::to_string(threads) + "/window=" + std::to_string(window);
    expect_identical(ta, tb, what);
  }
}

// The reverse port: saved under the parallel windowed scheduler
// (threads=8, window=auto), restored serial and at another thread count.
// The schedule is construction-time configuration, not snapshot state, so
// a parallel run's snapshot must be interchangeable with a serial one,
// byte for byte.
TEST(SnapGrid, WindowedSnapshotPortsAcrossThreadCounts) {
  // The stock ring has a 1-cycle link (lookahead 1, one-cycle windows); give
  // it a 4-cycle link so window=0 really opens a window.
  marks::MarkSet m = ring_marks();
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
  MappedFixture fx(make_ring_domain(), std::move(m));
  fault::Plan plan_a(noisy_spec());
  CoSimConfig windowed;
  windowed.threads = 8;
  windowed.window = 0;
  windowed.fault = &plan_a;
  CoSimulation a(*fx.system, windowed);
  EXPECT_EQ(a.window(), 4);
  boot_ring(a);
  a.run_cycles(kSaveAt);
  const std::vector<std::uint8_t> bytes = save(a, &plan_a, nullptr);
  Observed ta = run_tail(a, kContinue);

  for (auto [threads, window] : {std::pair{1, 1}, std::pair{2, 4}}) {
    fault::Plan plan_b(noisy_spec());
    CoSimConfig cfg;
    cfg.threads = threads;
    cfg.window = window;
    cfg.fault = &plan_b;
    CoSimulation b(*fx.system, cfg);
    restore(b, bytes.data(), bytes.size(), &plan_b, nullptr);
    Observed tb = run_tail(b, kContinue);
    const std::string what =
        "saved at threads=8/window=0, restored at threads=" +
        std::to_string(threads) + "/window=" + std::to_string(window);
    expect_identical(ta, tb, what);
  }
}

// Without the 'F' section loaded, a faulty continuation diverges — proof
// the stream positions (not just the seed) are what the snapshot carries.
TEST(SnapGrid, FaultStreamsActuallyMatter) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  fault::Plan plan_a(noisy_spec());
  CoSimConfig cfg;
  cfg.fault = &plan_a;
  CoSimulation a(*fx.system, cfg);
  boot_ring(a);
  a.run_cycles(kSaveAt);
  const std::vector<std::uint8_t> bytes = save(a, &plan_a, nullptr);
  Observed ta = run_tail(a, kContinue);

  fault::Plan plan_b(noisy_spec());  // fresh streams, same seed
  CoSimConfig cfg_b;
  cfg_b.fault = &plan_b;
  CoSimulation b(*fx.system, cfg_b);
  RestoreOptions opts;
  opts.load_fault_streams = false;
  restore(b, bytes.data(), bytes.size(), &plan_b, nullptr, opts);
  Observed tb = run_tail(b, kContinue);
  // Same state, but the plan re-draws from position 0: the fault pattern —
  // and with it the delivery timeline some observable records — must
  // differ. (The exported VCD signals are too coarse to be guaranteed to
  // move, so the assertion spans every observable.)
  EXPECT_TRUE(ta.hw_traces != tb.hw_traces || ta.sw_trace != tb.sw_trace ||
              ta.report != tb.report);
}

// --- sections a reader skips ----------------------------------------------------

/// Recompute the trailing CRC after a deliberate patch, so the test hits
/// the check it aims at instead of stopping at the CRC.
void refresh_crc(std::vector<std::uint8_t>* bytes) {
  const std::uint32_t crc = fault::crc32(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// `bytes` as an older build that checkpointed obs counters wrote it: the
/// header's has_obs_counters flag set and an 'O' section holding one
/// counter after the others, built field by field with Writer.
std::vector<std::uint8_t> with_obs_section(
    const std::vector<std::uint8_t>& bytes) {
  const SnapshotInfo info = inspect(bytes.data(), bytes.size());
  Writer w;
  w.u32(std::uint32_t{0x504e5358});  // "XSNP"
  w.u32(kSnapVersion);
  w.begin_section('H');
  w.str(info.digest);
  w.u64(info.cycle);
  w.boolean(info.has_fault_streams);
  w.boolean(true);
  w.end_section();
  // Only the flag, the header's last byte, differs from `bytes`.
  const std::size_t header = w.size();
  EXPECT_TRUE(std::equal(w.data().begin(), w.data().end() - 1, bytes.begin()));
  EXPECT_EQ(bytes[header - 1], 0u);
  w.bytes(bytes.data() + header, bytes.size() - 4 - header);
  w.begin_section('O');
  w.u64(std::uint64_t{1});
  w.str("noc.frames_sent");
  w.u64(std::uint64_t{42});
  w.end_section();
  std::vector<std::uint8_t> out = w.take();
  out.resize(out.size() + 4);
  refresh_crc(&out);
  return out;
}

// A snapshot with sections the reader does not want still restores:
// unwanted sections are skipped. That covers the 'F' section when no plan
// is attached at restore time, and always the 'O' section older builds
// wrote.
TEST(SnapObs, UnwantedSectionsAreSkipped) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  fault::Plan plan(noisy_spec());
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation a(*fx.system, cfg);
  boot_ring(a);
  a.run_cycles(100);
  const std::vector<std::uint8_t> bytes = with_obs_section(save(a, &plan));

  CoSimulation b(*fx.system, CoSimConfig{});
  const SnapshotInfo info = restore(b, bytes.data(), bytes.size());
  EXPECT_TRUE(info.has_fault_streams);
  EXPECT_TRUE(info.has_obs_counters);
  EXPECT_EQ(b.cycles(), 100u);

  // With the plan attached, the restored run continues as the saved one.
  fault::Plan plan_c(noisy_spec());
  CoSimConfig cfg_c;
  cfg_c.fault = &plan_c;
  CoSimulation c(*fx.system, cfg_c);
  restore(c, bytes.data(), bytes.size(), &plan_c);
  expect_identical(run_tail(a, kContinue), run_tail(c, kContinue),
                   "restored from a file with an 'O' section");
}

// --- rejection -----------------------------------------------------------------

std::vector<std::uint8_t> make_snapshot(MappedFixture& fx,
                                        std::uint64_t cycles = 100) {
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(cycles);
  return save(cs);
}

TEST(SnapReject, TruncatedFile) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  bytes.resize(bytes.size() - 5);
  CoSimulation cs(*fx.system, CoSimConfig{});
  EXPECT_THROW(restore(cs, bytes.data(), bytes.size()), SnapError);
  EXPECT_THROW(inspect(bytes.data(), bytes.size()), SnapError);
}

TEST(SnapReject, BitFlipFailsCrc) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  bytes[bytes.size() / 2] ^= 0x40;
  CoSimulation cs(*fx.system, CoSimConfig{});
  EXPECT_THROW(restore(cs, bytes.data(), bytes.size()), SnapError);
}

TEST(SnapReject, VersionMismatch) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  // Version is the u32 after the 4-byte magic (little-endian).
  bytes[4] = static_cast<std::uint8_t>(kSnapVersion + 1);
  refresh_crc(&bytes);  // valid CRC: the VERSION check must fire, not CRC
  CoSimulation cs(*fx.system, CoSimConfig{});
  try {
    restore(cs, bytes.data(), bytes.size());
    FAIL() << "version mismatch not rejected";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

// A file from the previous layout (v3 still carried the software task
// scheduler in C) is refused at the version check, not parsed.
TEST(SnapReject, PreviousVersionRefused) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  bytes[4] = static_cast<std::uint8_t>(kSnapVersion - 1);
  refresh_crc(&bytes);
  CoSimulation cs(*fx.system, CoSimConfig{});
  try {
    restore(cs, bytes.data(), bytes.size());
    FAIL() << "previous version not rejected";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapReject, WrongMagic) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  bytes[0] = 'Z';
  refresh_crc(&bytes);
  CoSimulation cs(*fx.system, CoSimConfig{});
  EXPECT_THROW(restore(cs, bytes.data(), bytes.size()), SnapError);
}

TEST(SnapReject, EmptyAndTinyFiles) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  std::vector<std::uint8_t> empty;
  EXPECT_THROW(restore(cs, empty.data(), empty.size()), SnapError);
  std::vector<std::uint8_t> tiny{'X', 'S', 'N', 'P', 1, 0};
  EXPECT_THROW(restore(cs, tiny.data(), tiny.size()), SnapError);
}

TEST(SnapReject, DigestMismatch) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  std::vector<std::uint8_t> bytes = make_snapshot(fx);
  // A different partition (Node2 in software) is a different MappedSystem:
  // same classes, different interface digest.
  marks::MarkSet other = ring_marks();
  marks::MarkSet reduced;
  for (int i = 0; i < 2; ++i) {
    std::string cls = "Node" + std::to_string(i);
    reduced.mark_hardware(cls);
    reduced.set_class_mark(cls, marks::kTileX,
                           ScalarValue(std::int64_t{i == 0 ? 1 : 0}));
    reduced.set_class_mark(cls, marks::kTileY,
                           ScalarValue(std::int64_t{i == 0 ? 0 : 1}));
  }
  reduced.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  reduced.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  MappedFixture fx2(make_ring_domain(), reduced);
  CoSimulation cs(*fx2.system, CoSimConfig{});
  try {
    restore(cs, bytes.data(), bytes.size());
    FAIL() << "digest mismatch not rejected";
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
        << e.what();
  }
}

// A forged element count must be refused by snap::Reader::count before a
// loader allocates or loops for it. Each case forges one count inside a
// valid snapshot, found through the component's own save_state bytes, and
// recomputes the CRC so the forgery reaches the decoder.

/// Where `part` sits in `bytes`; it must occur exactly once.
std::size_t locate(const std::vector<std::uint8_t>& bytes,
                   const std::vector<std::uint8_t>& part) {
  const auto at =
      std::search(bytes.begin(), bytes.end(), part.begin(), part.end());
  EXPECT_NE(at, bytes.end());
  if (at == bytes.end()) return 0;
  EXPECT_EQ(std::search(at + 1, bytes.end(), part.begin(), part.end()),
            bytes.end());
  return static_cast<std::size_t>(at - bytes.begin());
}

/// Overwrite the u64 at `at` with `forged` and restore: the refusal's
/// message must contain `want`.
void expect_forgery_refused(MappedFixture& fx, std::vector<std::uint8_t> bytes,
                            std::size_t at, std::uint64_t forged,
                            const std::string& want, fault::Plan* plan) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(forged >> (8 * i));
  }
  refresh_crc(&bytes);
  CoSimulation cs(*fx.system, CoSimConfig{});
  try {
    restore(cs, bytes.data(), bytes.size(), plan);
    FAIL() << "forgery not rejected: " << want;
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

/// Overwrite the u64 count at `at` with 2^40 and restore: the refusal must
/// be Reader::count's, for that offset.
void expect_count_refused(MappedFixture& fx, std::vector<std::uint8_t> bytes,
                          std::size_t at, fault::Plan* plan = nullptr) {
  const std::uint64_t forged = std::uint64_t{1} << 40;
  expect_forgery_refused(fx, std::move(bytes), at, forged,
                         "snapshot count " + std::to_string(forged) +
                             " at offset " + std::to_string(at) +
                             " exceeds the ",
                         plan);
}

/// The ring over the bus: Node1 in hardware, Node0 and Node2 in software,
/// so pings cross the bus both ways and the software domain is busy.
marks::MarkSet ring_bus_marks() {
  marks::MarkSet m;
  m.mark_hardware("Node1");
  return m;
}

/// The stock ring on a 3x2 mesh whose free tile 2 holds a DRAM edge.
marks::MarkSet ring_mem_marks() {
  marks::MarkSet m = ring_marks();
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(marks::kDramTile, ScalarValue(std::int64_t{2}));
  return m;
}

TEST(SnapReject, ForgedBusQueueCount) {
  MappedFixture fx(make_ring_domain(), ring_bus_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // The to-hardware queue count follows the connected flag.
  Writer bus;
  cs.bus().save_state(bus);
  expect_count_refused(fx, bytes, locate(bytes, bus.data()) + 1);
}

/// Where the software domain's state continues after its executor's.
std::size_t sw_domain_tail(const CoSimulation& cs,
                           const std::vector<std::uint8_t>& bytes) {
  Writer exec;
  cs.sw_executor().save_state(exec);
  return locate(bytes, exec.data()) + exec.data().size();
}

TEST(SnapReject, ForgedSwDomainOutboxCount) {
  MappedFixture fx(make_ring_domain(), ring_bus_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // The outbox count follows the executor and the domain's cycle.
  expect_count_refused(fx, bytes, sw_domain_tail(cs, bytes) + 8);
}

/// A checkpoint is taken at a quiet point, so the outbox whose count sits
/// at `count_at` is empty and its sent mark follows the count; marking one
/// frame sent is a forgery.
void expect_sent_mark_refused(MappedFixture& fx,
                              const std::vector<std::uint8_t>& bytes,
                              std::size_t count_at) {
  ASSERT_TRUE(std::all_of(bytes.begin() + static_cast<long>(count_at),
                          bytes.begin() + static_cast<long>(count_at + 16),
                          [](std::uint8_t b) { return b == 0; }));
  expect_forgery_refused(fx, bytes, count_at + 8, 1,
                         "outbox snapshot marks 1 of 0 frames sent", nullptr);
}

TEST(SnapReject, ForgedSwDomainOutboxSentMark) {
  MappedFixture fx(make_ring_domain(), ring_bus_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  expect_sent_mark_refused(fx, bytes, sw_domain_tail(cs, bytes) + 8);
}

TEST(SnapReject, ForgedRouterFifoCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // Router 0's first input FIFO count follows the fabric's topology,
  // routing and router count.
  Writer fabric;
  cs.fabric().save_state(fabric);
  expect_count_refused(fx, bytes, locate(bytes, fabric.data()) + 1 + 1 + 8);
}

TEST(SnapReject, ForgedNicEgressCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // NIC 0's egress count follows the fabric's topology, routing, router
  // count, every router's state and the NIC count.
  Writer fabric;
  cs.fabric().save_state(fabric);
  std::size_t at = locate(bytes, fabric.data()) + 1 + 1 + 8;
  for (std::size_t t = 0; t < cs.fabric().stats().routers.size(); ++t) {
    Writer router;
    cs.fabric().router(static_cast<int>(t)).save_state(router);
    at += router.data().size();
  }
  expect_count_refused(fx, bytes, at + 8);
}

/// Restore `bytes` (CRC refreshed) into a fresh elaboration: the refusal's
/// message must contain `want`.
void expect_bytes_refused(MappedFixture& fx, std::vector<std::uint8_t> bytes,
                          const std::string& want) {
  refresh_crc(&bytes);
  CoSimulation cs(*fx.system, CoSimConfig{});
  try {
    restore(cs, bytes.data(), bytes.size());
    FAIL() << "forgery not rejected: " << want;
  } catch (const SnapError& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// The ring on the 2x2 mesh after 100 cycles, with the offset of a router
/// whose FIFOs are all empty (so its five FIFO counts are eight zero bytes
/// each and its credit counters follow them).
struct IdleRouterSnapshot {
  std::vector<std::uint8_t> bytes;
  int tile = -1;
  std::size_t at = 0;  ///< the router's first FIFO count
  int depth = 0;
};

IdleRouterSnapshot idle_router_snapshot(MappedFixture& fx) {
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  IdleRouterSnapshot s;
  s.bytes = save(cs);
  for (int t = 0; t < 4 && s.tile < 0; ++t) {
    if (cs.fabric().router(t).buffers_empty()) s.tile = t;
  }
  EXPECT_GE(s.tile, 0);
  Writer router;
  cs.fabric().router(s.tile).save_state(router);
  s.at = locate(s.bytes, router.data());
  s.depth = cs.fabric().router(s.tile).fifo_depth();
  return s;
}

TEST(SnapReject, ForgedRouterFifoOverDepth) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const IdleRouterSnapshot s = idle_router_snapshot(fx);
  ASSERT_GE(s.tile, 0);
  // Fill the local FIFO with one flit more than its depth: a well-formed
  // count with its flits present, so only the depth check can refuse it.
  const auto over = static_cast<std::size_t>(s.depth) + 1;
  Writer flits;
  for (std::size_t i = 0; i < over; ++i) {
    noc::Flit f;
    f.dst_x = 1;
    f.dst_y = 1;
    noc::save_flit(flits, f);
  }
  std::vector<std::uint8_t> bytes = s.bytes;
  bytes[s.at] = static_cast<std::uint8_t>(over);
  bytes.insert(bytes.begin() + static_cast<long>(s.at + 8),
               flits.data().begin(), flits.data().end());
  expect_bytes_refused(fx, bytes,
                       "snapshot holds " + std::to_string(over) +
                           " flits in its local FIFO, deeper than fifo_depth " +
                           std::to_string(s.depth));
}

TEST(SnapReject, ForgedRouterCredits) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const IdleRouterSnapshot s = idle_router_snapshot(fx);
  ASSERT_GE(s.tile, 0);
  const std::size_t credits_at = s.at + 5 * 8;  // after five empty FIFOs
  const std::string range =
      "outside [0, fifo_depth " + std::to_string(s.depth) + "]";
  // One credit too many toward the east port, and a negative count (the
  // u32 reads back as -1), each breaks the credit books.
  for (const std::uint32_t forged :
       {static_cast<std::uint32_t>(s.depth) + 1, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes = s.bytes;
    put_u32(bytes, credits_at + 4 * noc::kEast, forged);
    expect_bytes_refused(fx, bytes,
                         "snapshot holds " + std::to_string(forged) +
                             " credits toward east, " + range);
  }
  // NIC 0 (the CPU tile) injects nothing in the ring, so its egress queue
  // is empty and its inject credits follow the queue's count.
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  Writer fabric;
  cs.fabric().save_state(fabric);
  std::size_t nic0 = locate(s.bytes, fabric.data()) + 1 + 1 + 8;
  for (int t = 0; t < 4; ++t) {
    Writer router;
    cs.fabric().router(t).save_state(router);
    nic0 += router.data().size();
  }
  nic0 += 8;  // the NIC count
  for (const std::uint32_t forged :
       {static_cast<std::uint32_t>(s.depth) + 1, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes = s.bytes;
    put_u32(bytes, nic0 + 8, forged);
    expect_bytes_refused(fx, bytes,
                         "NIC snapshot holds " + std::to_string(forged) +
                             " inject credits, " + range);
  }
}

TEST(SnapReject, ForgedRouterRoundRobin) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const IdleRouterSnapshot s = idle_router_snapshot(fx);
  ASSERT_GE(s.tile, 0);
  // After five empty FIFOs and five credit counters. Arbitration starts
  // its scan at the pointer, so -1 would read in_[-1].
  const std::size_t rr_at = s.at + 5 * 8 + 5 * 4;
  for (const std::uint32_t forged : {5u, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes = s.bytes;
    put_u32(bytes, rr_at + 4 * noc::kEast, forged);
    expect_bytes_refused(fx, bytes,
                         "snapshot holds round-robin pointer " +
                             std::to_string(forged) +
                             " for east, outside [0, 5)");
  }
}

TEST(SnapReject, ForgedRouterCreditsWithoutLink) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const IdleRouterSnapshot s = idle_router_snapshot(fx);
  ASSERT_GE(s.tile, 0);
  CoSimulation cs(*fx.system, CoSimConfig{});
  // The ejection port and every mesh edge of a 2x2 router have no link;
  // a flit routed to one would index links_[-1].
  std::vector<noc::Port> linkless = {noc::kLocal};
  for (noc::Port p : {noc::kNorth, noc::kEast, noc::kSouth, noc::kWest}) {
    if (cs.fabric().topology().neighbors(s.tile, p) < 0) linkless.push_back(p);
  }
  ASSERT_EQ(linkless.size(), 3u);
  for (noc::Port p : linkless) {
    std::vector<std::uint8_t> bytes = s.bytes;
    put_u32(bytes, s.at + 5 * 8 + 4 * static_cast<std::size_t>(p), 1);
    expect_bytes_refused(fx, bytes,
                         "snapshot holds 1 credits toward " +
                             std::string(noc::to_string(p)) +
                             ", which has no link");
  }
}

TEST(SnapReject, ForgedFlitCoordinates) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const IdleRouterSnapshot s = idle_router_snapshot(fx);
  ASSERT_GE(s.tile, 0);
  // One flit in the local FIFO, bound for or coming from a tile past the
  // 2x2 mesh; the fabric indexes its NICs by these coordinates.
  for (const bool bad_dst : {true, false}) {
    noc::Flit f;
    f.dst_x = bad_dst ? 7 : 1;
    f.src_y = bad_dst ? 0 : 2;
    Writer flit;
    noc::save_flit(flit, f);
    std::vector<std::uint8_t> bytes = s.bytes;
    bytes[s.at] = 1;
    bytes.insert(bytes.begin() + static_cast<long>(s.at + 8),
                 flit.data().begin(), flit.data().end());
    expect_bytes_refused(fx, bytes,
                         std::string("fabric snapshot holds a flit from ") +
                             (bad_dst ? "(0,0) to (7,0)" : "(0,2) to (1,0)") +
                             ", outside the 2x2 network");
  }
}

TEST(SnapReject, ForgedMemoryStoreBufferCount) {
  MappedFixture fx(make_ring_domain(), ring_mem_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  ASSERT_NE(cs.mem_system(), nullptr);
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // The first domain's store-buffer count follows the domain count and
  // that domain's tile and sequence number.
  Writer mem;
  cs.mem_system()->save_state(mem);
  expect_count_refused(fx, bytes, locate(bytes, mem.data()) + 8 + 8 + 8);
}

TEST(SnapReject, ForgedExecutorQueueCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  // The self-queue count follows the executor's database and trace.
  const runtime::Executor& exec = cs.hw_executor();
  Writer whole;
  exec.save_state(whole);
  Writer prefix;
  exec.database().save_state(prefix);
  exec.trace().save_state(prefix);
  expect_count_refused(fx, bytes, locate(bytes, whole.data()) + prefix.size());
}

/// Where the first hardware domain's outbox count sits: after the
/// domain's executor and its cycle.
std::size_t hw_domain_outbox(const CoSimulation& cs,
                             const std::vector<std::uint8_t>& bytes) {
  const cosim::HwDomain& hw = *cs.hw_domains().front();
  Writer whole;
  hw.save_state(whole);
  Writer prefix;
  hw.executor().save_state(prefix);
  return locate(bytes, whole.data()) + prefix.size() + 8;
}

TEST(SnapReject, ForgedHwDomainOutboxCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  expect_count_refused(fx, bytes, hw_domain_outbox(cs, bytes));
}

TEST(SnapReject, ForgedHwDomainOutboxSentMark) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs);
  expect_sent_mark_refused(fx, bytes, hw_domain_outbox(cs, bytes));
}

TEST(SnapReject, ForgedFaultStreamCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  fault::Plan plan(noisy_spec());
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation cs(*fx.system, cfg);
  boot_ring(cs);
  cs.run_cycles(100);
  const std::vector<std::uint8_t> bytes = save(cs, &plan);
  // The stream count opens the plan's state.
  Writer streams;
  plan.save_state(streams);
  fault::Plan fresh(noisy_spec());
  expect_count_refused(fx, bytes, locate(bytes, streams.data()), &fresh);
}

// The kernel block is checked against the re-elaborated netlist: its wire
// count and widths, its one clock's half period, and the clock schedule.

/// The ring on the 2x2 mesh after 100 cycles and the offset of its kernel
/// block; `wires` is the netlist's wire count.
struct KernelSnapshot {
  std::vector<std::uint8_t> bytes;
  std::size_t at = 0;
  std::size_t wires = 0;
  /// Where the clock block starts: after the wire count and every wire's
  /// width (u8), value and posedge count.
  std::size_t clock_at() const { return at + 8 + wires * (1 + 8 + 8); }
};

KernelSnapshot kernel_snapshot(MappedFixture& fx) {
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs);
  cs.run_cycles(100);
  KernelSnapshot k;
  k.bytes = save(cs);
  Writer kernel;
  cs.hw_sim().save_state(kernel);
  k.at = locate(k.bytes, kernel.data());
  k.wires = cs.hw_sim().wire_count();
  return k;
}

TEST(SnapReject, ForgedKernelWireCount) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const KernelSnapshot k = kernel_snapshot(fx);
  expect_forgery_refused(fx, k.bytes, k.at, k.wires + 1,
                         "kernel snapshot has " + std::to_string(k.wires + 1) +
                             " wires, netlist has " + std::to_string(k.wires),
                         nullptr);
}

TEST(SnapReject, ForgedKernelWireWidth) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  KernelSnapshot k = kernel_snapshot(fx);
  k.bytes[k.at + 8] = 2;  // the clock's width
  expect_bytes_refused(fx, k.bytes,
                       "kernel snapshot wire width mismatch on 'clk'");
}

TEST(SnapReject, ForgedKernelClockPeriod) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const KernelSnapshot k = kernel_snapshot(fx);
  expect_forgery_refused(fx, k.bytes, k.clock_at() + 8, 2,
                         "kernel snapshot clock period mismatch", nullptr);
}

TEST(SnapReject, ForgedKernelClockSchedule) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const KernelSnapshot k = kernel_snapshot(fx);
  // After 100 edges the time is 199 and the next toggle 200.
  expect_forgery_refused(fx, k.bytes, k.clock_at() + 16, 201,
                         "kernel snapshot clock schedule is inconsistent",
                         nullptr);
}

// --- fuzzing the reader --------------------------------------------------------
//
// Seeded byte mutations of a valid checkpoint, each with its CRC
// recomputed so the mutation reaches the section decoders. Every mutated
// file must be refused with SnapError, or restore, render report() and
// run on: nothing may crash, hang or escape the restore with another
// exception.

/// Two hardware workers on tiles 1 and 2 of a 2x2 mesh whose tile 3 is the
/// DRAM edge. They pass a job back and forth across the mesh forever, and
/// every job writes and reads shared memory.
std::unique_ptr<xtuml::Domain> make_mem_pair_domain() {
  xtuml::DomainBuilder b("MemPair");
  b.cls("W0");
  b.cls("W1");
  for (int i = 0; i < 2; ++i) {
    b.edit("W" + std::to_string(i))
        .attr("sum", DataType::kInt)
        .ref_attr("peer", "W" + std::to_string(1 - i))
        .event("job", {{"n", DataType::kInt}})
        .state("Work",
               "mem.write((param.n % 4) * 8, param.n);\n"
               "self.sum = self.sum + mem.read(((param.n + 1) % 4) * 8);\n"
               "generate job(n: param.n + 1) to self.peer;")
        .transition("Work", "job", "Work");
  }
  return b.take();
}

marks::MarkSet mem_pair_marks() {
  marks::MarkSet m;
  for (int i = 0; i < 2; ++i) {
    const std::string cls = "W" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX, ScalarValue(std::int64_t{1 - i}));
    m.set_class_mark(cls, marks::kTileY, ScalarValue(std::int64_t{i}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kDramTile, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(marks::kCacheSets, ScalarValue(std::int64_t{4}));
  return m;
}

/// Create W0 and W1, pair them and start one job at W0 (and, with
/// `both`, a second one at W1). Returns W0 and W1.
std::pair<runtime::InstanceHandle, runtime::InstanceHandle> boot_mem_pair(
    CoSimulation& cs, bool both = false) {
  const runtime::InstanceHandle w0 = cs.create("W0");
  const runtime::InstanceHandle w1 = cs.create("W1");
  // peer is the second declared attribute (sum, peer).
  cs.executor_of(w0.cls).database().set_attr(w0, AttributeId(1), Value(w1));
  cs.executor_of(w1.cls).database().set_attr(w1, AttributeId(1), Value(w0));
  cs.inject(w0, "job", {Value(std::int64_t{0})});
  if (both) cs.inject(w1, "job", {Value(std::int64_t{2})});
  return {w0, w1};
}

TEST(SnapFuzz, MutatedCheckpointsAreRefusedOrRestored) {
  MappedFixture fx(make_mem_pair_domain(), mem_pair_marks());
  std::vector<std::uint8_t> valid;
  {
    CoSimulation cs(*fx.system, CoSimConfig{});
    ASSERT_NE(cs.mem_system(), nullptr);
    boot_mem_pair(cs);
    cs.run_cycles(150);
    ASSERT_GT(cs.mem_system()->stats().stores, 0u);
    valid = save(cs);
  }
  const std::size_t body = valid.size() - 4;  // the CRC is recomputed
  int refused = 0;
  int restored = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Xorshift64Star rng = Xorshift64Star::seeded(seed);
    std::vector<std::uint8_t> bytes = valid;
    const int mutations = 1 + static_cast<int>(rng.next() % 4);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next() % body;
      switch (rng.next() % 4) {
        case 0:
          bytes[at] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
          break;
        case 1:
          bytes[at] = static_cast<std::uint8_t>(rng.next());
          break;
        case 2:
          bytes[at] = 0xff;
          break;
        default:
          bytes[at] = 0;
          break;
      }
    }
    refresh_crc(&bytes);
    CoSimulation cs(*fx.system, CoSimConfig{});
    try {
      restore(cs, bytes.data(), bytes.size());
    } catch (const SnapError&) {
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": not a SnapError: " << e.what();
      continue;
    }
    EXPECT_FALSE(cs.report().to_json(2).empty()) << "seed " << seed;
    // What restores must also run. A std::exception from the model or the
    // interconnect is a refusal; a crash, a sanitizer report or a hang is
    // a loader defect.
    try {
      cs.run_cycles(20);
      cs.create("W0");
    } catch (const std::exception&) {
    }
    ++restored;
  }
  // Both outcomes occur: the mutations reach decoders that refuse them and
  // payload bytes that decode to some other valid state.
  EXPECT_GT(refused, 0);
  EXPECT_GT(restored, 0);
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

/// The mem-pair workload after 150 cycles, with the offsets of its memory
/// section's parts.
struct MemSnapshot {
  std::vector<std::uint8_t> bytes;
  std::size_t at = 0;      ///< the domain count
  std::size_t cells = 0;   ///< the value store's address count
  std::size_t caches = 0;  ///< the cache count
};

MemSnapshot mem_snapshot(MappedFixture& fx) {
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_mem_pair(cs);
  cs.run_cycles(150);
  MemSnapshot m;
  m.bytes = save(cs);
  Writer mem;
  cs.mem_system()->save_state(mem);
  m.at = locate(m.bytes, mem.data());
  // Each domain: its tile, sequence number, store buffer (32 bytes a
  // store) and accesses (17 bytes each).
  std::size_t at = m.at + 8;
  for (std::uint64_t d = get_u64(m.bytes, m.at); d > 0; --d) {
    at += 8 + 8;
    at += 8 + 32 * get_u64(m.bytes, at);
    at += 8 + 17 * get_u64(m.bytes, at);
  }
  m.cells = at;
  // Each address: the address and its versions (32 bytes each).
  at += 8;
  for (std::uint64_t c = get_u64(m.bytes, m.cells); c > 0; --c) {
    at += 8;
    at += 8 + 32 * get_u64(m.bytes, at);
  }
  m.caches = at;
  return m;
}

// Found by SnapFuzz: reads assume every settled version of the value store
// was visible when the checkpoint was taken.
TEST(SnapReject, ForgedMemoryVersionVisibility) {
  MappedFixture fx(make_mem_pair_domain(), mem_pair_marks());
  const MemSnapshot m = mem_snapshot(fx);
  ASSERT_GT(get_u64(m.bytes, m.cells), 0u);
  // The first address: the address, its version count and value, then the
  // cycle the version became visible.
  expect_forgery_refused(fx, m.bytes, m.cells + 8 + 8 + 8 + 8, 151,
                         "visible at cycle 151, after the checkpoint's "
                         "cycle 150",
                         nullptr);
}

TEST(SnapReject, ForgedMemoryDomainTile) {
  MappedFixture fx(make_mem_pair_domain(), mem_pair_marks());
  const MemSnapshot m = mem_snapshot(fx);
  // The first domain's tile; a tile with no cache indexes an empty one.
  expect_forgery_refused(fx, m.bytes, m.at + 8, 2,
                         "memory snapshot domain tile mismatch", nullptr);
}

TEST(SnapReject, ForgedMemoryMissWay) {
  MappedFixture fx(make_mem_pair_domain(), mem_pair_marks());
  const MemSnapshot m = mem_snapshot(fx);
  // The first cache: its tile, LRU tick and lines (17 bytes each), then
  // the MSHR's valid flag, line, want, write flag, issue cycle and way.
  const std::size_t lines_at = m.caches + 8 + 8 + 8;
  const std::uint64_t lines = get_u64(m.bytes, lines_at);
  ASSERT_GT(lines, 0u);
  const std::size_t way_at = lines_at + 8 + 17 * lines + 1 + 8 + 1 + 1 + 8;
  expect_forgery_refused(fx, m.bytes, way_at, lines,
                         "lines with its miss in way " +
                             std::to_string(lines) +
                             ", the configuration has " +
                             std::to_string(lines),
                         nullptr);
}

// --- golden pins ---------------------------------------------------------------
//
// FNV-1a fingerprints of checkpoint bytes for states the CoSimGolden pins
// (cosim_test) never reach: the memory hierarchy mid-transaction, an armed
// NoC fault plan mid-flight, bus errors, adaptive route pins and the obs
// section. Each run saves at every `step` cycles and pins the hash of all
// the saves in order. A changed pin means the checkpoint layout changed:
// bump kSnapVersion and re-pin.

std::uint64_t pin_saves(CoSimulation& cs, std::uint64_t step, int saves,
                        const fault::Plan* plan = nullptr) {
  std::string all;
  for (int i = 0; i < saves; ++i) {
    cs.run_cycles(step);
    const std::vector<std::uint8_t> b = save(cs, plan);
    all.append(b.begin(), b.end());
  }
  return testing::fnv1a(all);
}

TEST(SnapGolden, MemoryHierarchyMidRun) {
  MappedFixture fx(make_mem_pair_domain(), mem_pair_marks());
  CoSimulation cs(*fx.system, CoSimConfig{});
  // Two jobs chase each other, so both tiles contend for the shared lines.
  boot_mem_pair(cs, true);
  std::string all;
  int busy = 0;
  for (int i = 0; i < 40; ++i) {
    cs.run_cycles(3);
    if (!cs.mem_system()->idle()) ++busy;
    const std::vector<std::uint8_t> b = save(cs);
    all.append(b.begin(), b.end());
  }
  EXPECT_GT(busy, 0);
  EXPECT_GT(cs.mem_system()->stats().misses, 0u);
  EXPECT_EQ(testing::fnv1a(all), 0x2e3cb36ac575e34dull);
}

TEST(SnapGolden, ArmedFabricMidFlight) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  fault::FaultSpec spec = noisy_spec();
  spec.link_down = 0.05;
  fault::Plan plan(spec);
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation cs(*fx.system, cfg);
  boot_ring(cs);
  EXPECT_EQ(pin_saves(cs, 7, 30, &plan), 0x0f2ed4eb098597c0ull);
  const noc::FabricFaultStats& f = cs.fabric().fault_stats();
  EXPECT_GT(f.retransmissions, 0u);
  EXPECT_GT(f.link_down_events, 0u);
  EXPECT_GT(f.acks_delivered, 0u);
}

TEST(SnapGolden, BusErrors) {
  MappedFixture fx(make_ring_domain(), ring_bus_marks());
  fault::FaultSpec spec;
  spec.seed = 11;
  spec.bus_error = 0.2;
  fault::Plan plan(spec);
  CoSimConfig cfg;
  cfg.fault = &plan;
  CoSimulation cs(*fx.system, cfg);
  boot_ring(cs);
  EXPECT_EQ(pin_saves(cs, 9, 20, &plan), 0x9f0e30a959664a74ull);
  EXPECT_GT(cs.bus().fault_stats().errors, 0u);
}

TEST(SnapGolden, AdaptiveMeshPins) {
  marks::MarkSet m = mesh8x8_marks();
  m.set_domain_mark(marks::kRouting, ScalarValue(std::string("adaptive")));
  MappedFixture fx(make_ring_domain(63), m);
  CoSimulation cs(*fx.system, CoSimConfig{});
  boot_ring(cs, 63);
  std::string all;
  int pinned = 0;
  for (int i = 0; i < 20; ++i) {
    cs.run_cycles(5);
    const std::vector<std::uint8_t> b = save(cs);
    all.append(b.begin(), b.end());
    // A router's pin count sits before its four u64 stats, so a nonzero
    // word there means it holds pins.
    for (int t = 0; t < 64; ++t) {
      Writer router;
      cs.fabric().router(t).save_state(router);
      const std::vector<std::uint8_t>& rb = router.data();
      pinned += std::any_of(rb.end() - 40, rb.end() - 32,
                            [](std::uint8_t x) { return x != 0; });
    }
  }
  EXPECT_GT(pinned, 0);
  EXPECT_EQ(testing::fnv1a(all), 0x94c23157af9367deull);
}

// A registry records spans only: attached to the run and passed to save,
// tracing off or on, it adds no byte to the checkpoint.
TEST(SnapGolden, RegistryAttachedSavesSameBytes) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  for (bool tracing : {false, true}) {
    SCOPED_TRACE(tracing ? "tracing on" : "tracing off");
    CoSimulation bare(*fx.system, CoSimConfig{});
    obs::Registry reg;
    reg.enable_tracing(tracing);
    CoSimConfig cfg;
    cfg.obs = &reg;
    CoSimulation cs(*fx.system, cfg);
    boot_ring(bare);
    boot_ring(cs);
    std::string all;
    for (int i = 0; i < 4; ++i) {
      bare.run_cycles(50);
      cs.run_cycles(50);
      const std::vector<std::uint8_t> b = save(cs, nullptr, &reg);
      EXPECT_TRUE(b == save(bare)) << "save " << i;
      all.append(b.begin(), b.end());
    }
    EXPECT_EQ(testing::fnv1a(all), 0x3167d5c90f3aaa7aull);
    EXPECT_EQ(reg.chrome_trace().find("\"name\":\"save\"") !=
                  std::string::npos,
              tracing);
  }
}

TEST(SnapInspect, HeaderWithoutACosim) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const std::vector<std::uint8_t> bytes = make_snapshot(fx, 123);
  const SnapshotInfo info = inspect(bytes.data(), bytes.size());
  EXPECT_EQ(info.version, kSnapVersion);
  EXPECT_EQ(info.cycle, 123u);
  EXPECT_FALSE(info.has_fault_streams);
  EXPECT_FALSE(info.digest.empty());
}

// --- file helpers --------------------------------------------------------------

TEST(SnapFile, WriteReadRoundTrip) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  const std::vector<std::uint8_t> bytes = make_snapshot(fx);
  const std::string path = ::testing::TempDir() + "snap_roundtrip.xsnp";
  write_file(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_THROW(read_file(path + ".nonexistent"), SnapError);
}

// --- warm campaigns ------------------------------------------------------------

fault::FaultSpec warm_spec(std::uint64_t window_start) {
  fault::FaultSpec s;
  s.seed = 42;
  s.flit_drop = 0.02;
  s.flit_corrupt = 0.02;
  s.window_start = window_start;
  return s;
}

TEST(SnapWarm, WarmCampaignEqualsColdCampaign) {
  constexpr std::uint64_t kWarm = 200;
  constexpr std::uint64_t kRun = 300;
  constexpr int kRuns = 6;
  MappedFixture fx(make_ring_domain(), ring_marks());

  WarmCampaign warm(*fx.system, CoSimConfig{}, warm_spec(kWarm), kWarm, kRun,
                    [](CoSimulation& cs) { boot_ring(cs); });
  fault::CampaignResult warm_result = warm.run(kRuns, 1, nullptr);

  // Cold: per seed, full elaboration and straight run over the same span.
  fault::Campaign cold(warm_spec(kWarm), kRuns, 1);
  fault::CampaignResult cold_result = cold.run([&](int index, std::uint64_t) {
    fault::Plan plan(cold.spec_for(index));
    CoSimConfig cfg;
    cfg.fault = &plan;
    CoSimulation cs(*fx.system, cfg);
    boot_ring(cs);
    cs.run_cycles(kWarm + kRun);
    return cosim::outcome_of(cs, plan);
  });

  EXPECT_EQ(warm_result.to_snapshot().to_json(2),
            cold_result.to_snapshot().to_json(2));
  // The workload must be noisy enough that equality is meaningful.
  std::uint64_t injected = 0;
  for (const auto& r : cold_result.runs) injected += r.injected;
  EXPECT_GT(injected, 0u);
}

TEST(SnapWarm, RejectsWindowBeforeCheckpoint) {
  MappedFixture fx(make_ring_domain(), ring_marks());
  // window_start 50 < warm 200: streams would be consulted pre-checkpoint.
  EXPECT_THROW(WarmCampaign(*fx.system, CoSimConfig{}, warm_spec(50), 200,
                            300, [](CoSimulation& cs) { boot_ring(cs); }),
               SnapError);
}

}  // namespace
}  // namespace xtsoc::snap
