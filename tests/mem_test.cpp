// xtsoc::mem — the mark-driven memory hierarchy.
//
// The contracts under test, in order:
//   * the coherence wire format round-trips and its opcode space can never
//     collide with model signals or synthetic traffic;
//   * the FUNCTIONAL layer's visibility rule: a store issued at cycle c is
//     forwarded to its own domain immediately and to every other domain at
//     exactly c + L, with same-cycle stores ordered by (tag, issue seq);
//     the bounded value store returns what the unbounded version log it
//     replaced returned, for every read the cosim's call discipline allows;
//   * the TIMING layer walks the full MESI grid — cold fill to E, silent
//     E->M upgrade, read-sharing downgrade (M flushes, both end S),
//     write invalidation, dirty-victim eviction, uncached mode — with
//     coherence messages as real fabric frames;
//   * end to end, OAL `mem.read`/`mem.write` move values between mesh
//     tiles, byte-identically at every threads x window x faults setting;
//   * snapshots carry the hierarchy (restore across thread counts), their
//     bytes at a cycle are the same at every threads x window setting,
//     their size stays flat over a long run, and a mem-world snapshot
//     refuses to restore into a memory-less world;
//   * a world WITHOUT memory marks is pinned: no mem system, no "memory"
//     report section, and a golden fingerprint over its traces;
//   * the noc TrafficGen `memory` pattern drives a real directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "observe.hpp"
#include "test_models.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/mem/wire.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/noc/traffic.hpp"
#include "xtsoc/snap/io.hpp"
#include "xtsoc/snap/snapshot.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::mem {
namespace {

using cosim::CoSimConfig;
using cosim::CoSimulation;
using runtime::InstanceHandle;
using runtime::Value;
using testing::MappedFixture;
using testing::Observed;
using testing::Recorder;
using testing::expect_identical;
using testing::fnv1a;
using xtuml::DataType;
using xtuml::ScalarValue;

// --- wire format ---------------------------------------------------------------

TEST(MemWire, RoundTripAllFields) {
  auto p = wire::encode(wire::kData, /*aux=*/2, /*src_tile=*/5,
                        /*line=*/-7, /*pad_to=*/64);
  EXPECT_EQ(p.size(), 64u);
  wire::Decoded d = wire::decode(p);
  EXPECT_EQ(d.type, wire::kData);
  EXPECT_EQ(d.aux, 2);
  EXPECT_EQ(d.src_tile, 5);
  EXPECT_EQ(d.line, -7);

  auto q = wire::encode(wire::kGetS, 0, 300, 0x123456789abcLL);
  EXPECT_EQ(q.size(), wire::kHeaderBytes);
  wire::Decoded e = wire::decode(q);
  EXPECT_EQ(e.type, wire::kGetS);
  EXPECT_EQ(e.src_tile, 300);
  EXPECT_EQ(e.line, 0x123456789abcLL);
}

TEST(MemWire, OpcodeSpaceDisjointFromModelTraffic) {
  for (wire::Msg m : {wire::kGetS, wire::kGetM, wire::kPutM, wire::kInv,
                      wire::kInvAck, wire::kData}) {
    EXPECT_TRUE(wire::is_coherence(wire::opcode(m)));
  }
  // Model signal opcodes are small event indices; synthetic traffic uses
  // (src << 16) | seq with src bounded by the mesh size. Neither can reach
  // the upper-10-bits-set range.
  EXPECT_FALSE(wire::is_coherence(0));
  EXPECT_FALSE(wire::is_coherence(42));
  EXPECT_FALSE(wire::is_coherence((1023u << 16) | 0xffffu));
}

// --- functional layer ----------------------------------------------------------

MemConfig functional_config() {
  MemConfig c;
  c.dram_tile = 3;
  c.lookahead = 8;
  return c;
}

TEST(MemFunctional, UnwrittenAddressReadsZero) {
  System sys(functional_config(), nullptr);
  sys.add_domain(0, nullptr);
  EXPECT_EQ(sys.read(0, 0, 12345), 0);
}

TEST(MemFunctional, OwnStoreForwardsImmediatelyOthersWaitLookahead) {
  System sys(functional_config(), nullptr);
  sys.add_domain(0, nullptr);
  sys.add_domain(1, nullptr);
  sys.write(0, /*cycle=*/5, /*addr=*/40, /*value=*/99);
  // The issuing domain sees its own store at once (store buffer).
  EXPECT_EQ(sys.read(0, 5, 40), 99);
  // Another domain sees nothing until the visibility cycle 5 + 8 = 13.
  EXPECT_EQ(sys.read(1, 12, 40), 0);
  sys.append_visible(12);
  EXPECT_EQ(sys.read(1, 12, 40), 0);  // vis = 13 not yet in the horizon
  sys.append_visible(13);
  EXPECT_EQ(sys.read(1, 12, 40), 0);  // logged, but not visible at 12
  EXPECT_EQ(sys.read(1, 13, 40), 99);
  // The writer keeps seeing its own store through the log as well.
  EXPECT_EQ(sys.read(0, 6, 40), 99);
}

TEST(MemFunctional, SameCycleStoresOrderByTagThenSeq) {
  System sys(functional_config(), nullptr);
  sys.add_domain(0, nullptr);
  sys.add_domain(1, nullptr);
  // Two domains hit the same address in the same cycle: the global order
  // is (visibility, tag, seq), so tag 1's store is the newer version.
  sys.write(1, 4, 7, 111);
  sys.write(0, 4, 7, 222);
  sys.append_visible(100);
  EXPECT_EQ(sys.read(0, 100, 7), 111);
  EXPECT_EQ(sys.read(1, 100, 7), 111);
  // Within one domain, issue order wins.
  sys.write(0, 10, 8, 1);
  sys.write(0, 10, 8, 2);
  sys.append_visible(100);
  EXPECT_EQ(sys.read(1, 100, 8), 2);
}

/// The unbounded version log the bounded store replaced, kept as the
/// reference: every published store stays, and a read scans newest-first.
/// It also counts the cases the differential test must reach.
struct UnboundedLog {
  struct Store {
    std::int64_t addr = 0;
    std::int64_t value = 0;
    std::uint64_t vis = 0;
    int tag = 0;
    std::uint64_t seq = 0;  ///< global issue order (implies per-tag order)
  };
  std::uint64_t lookahead = 0;
  std::uint64_t seq = 0;
  std::vector<Store> buffered;  ///< issue order
  std::map<std::int64_t, std::vector<Store>> log;
  int own_unseen_reads = 0;  ///< decided by the reader's own invisible store
  int same_cycle_ties = 0;   ///< one address, one vis, two tags in a batch

  std::int64_t read(int tag, std::uint64_t cycle, std::int64_t addr) {
    for (auto it = buffered.rbegin(); it != buffered.rend(); ++it) {
      if (it->tag == tag && it->addr == addr) return it->value;
    }
    auto li = log.find(addr);
    if (li == log.end()) return 0;
    for (auto it = li->second.rbegin(); it != li->second.rend(); ++it) {
      if (it->vis <= cycle) return it->value;
      if (it->tag == tag) {
        ++own_unseen_reads;
        return it->value;
      }
    }
    return 0;
  }

  void write(int tag, std::uint64_t cycle, std::int64_t addr,
             std::int64_t value) {
    buffered.push_back(Store{addr, value, cycle + lookahead, tag, seq++});
  }

  void append_visible(std::uint64_t horizon) {
    auto due = std::stable_partition(
        buffered.begin(), buffered.end(),
        [horizon](const Store& s) { return s.vis <= horizon; });
    std::vector<Store> batch(buffered.begin(), due);
    buffered.erase(buffered.begin(), due);
    std::sort(batch.begin(), batch.end(), [](const Store& a, const Store& b) {
      return std::tie(a.vis, a.tag, a.seq) < std::tie(b.vis, b.tag, b.seq);
    });
    std::map<std::pair<std::uint64_t, std::int64_t>, int> first_tag;
    for (const Store& st : batch) {
      auto [it, fresh] = first_tag.emplace(std::pair(st.vis, st.addr), st.tag);
      if (!fresh && it->second != st.tag) ++same_cycle_ties;
      log[st.addr].push_back(st);
    }
  }
};

TEST(MemFunctional, BoundedStoreMatchesUnboundedLog) {
  // Seeded random traffic from four tags over three addresses, under the
  // cosim's call discipline: append_visible(h), then every tag runs the
  // window's cycles (h_prev, h] in turn, with windows from 1 to L. Every
  // read must equal the unbounded log's, across a save/load round trip.
  constexpr int kTags = 4;
  constexpr std::uint64_t kL = 6;
  MemConfig cfg = functional_config();
  cfg.lookahead = kL;
  auto fresh_system = [&cfg] {
    auto sys = std::make_unique<System>(cfg, nullptr);
    for (int tag = 0; tag < kTags; ++tag) sys->add_domain(tag, nullptr);
    return sys;
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::unique_ptr<System> sys = fresh_system();
    UnboundedLog ref;
    ref.lookahead = kL;
    std::uint64_t horizon = 0;
    for (int window = 0; window < 400; ++window) {
      if (window == 200) {
        snap::Writer w;
        sys->save_state(w);
        sys = fresh_system();
        snap::Reader r(w.data());
        sys->load_state(r);
      }
      const std::uint64_t base = horizon;
      horizon = base + 1 + rng() % kL;
      sys->append_visible(horizon);
      ref.append_visible(horizon);
      for (int tag = 0; tag < kTags; ++tag) {
        for (std::uint64_t c = base + 1; c <= horizon; ++c) {
          for (std::uint64_t op = rng() % 4; op > 0; --op) {
            const auto addr = static_cast<std::int64_t>(8 * (rng() % 3));
            if (rng() % 2 == 0) {
              const auto value = static_cast<std::int64_t>(rng() % 1000);
              sys->write(tag, c, addr, value);
              ref.write(tag, c, addr, value);
            } else {
              const std::int64_t want = ref.read(tag, c, addr);
              ASSERT_EQ(sys->read(tag, c, addr), want)
                  << "tag " << tag << " cycle " << c << " addr " << addr;
            }
          }
        }
      }
    }
    EXPECT_GT(ref.own_unseen_reads, 0);
    EXPECT_GT(ref.same_cycle_ties, 0);
  }
}

TEST(MemFunctional, LoaderKeepsTheNewestOfManyVersions) {
  // A checkpoint may list several versions of one address (the v3 layout
  // has a per-address count); every one was visible at the save cycle, so
  // the newest is the value.
  System saved(functional_config(), nullptr);
  saved.add_domain(0, nullptr);
  snap::Writer empty;
  saved.save_state(empty);
  // One domain (count, tile, seq, store and access counts), then the
  // address count of the value store.
  const std::size_t at = 5 * 8;
  snap::Writer w;
  w.bytes(empty.data().data(), at);
  w.u64(1);   // one address
  w.i64(40);  // addr
  w.u64(3);   // three versions, oldest first
  for (std::int64_t value : {5, 6, 7}) {
    w.i64(value);
    w.u64(static_cast<std::uint64_t>(value));  // vis
    w.u64(0);                                  // tag
    w.u64(static_cast<std::uint64_t>(value));  // seq
  }
  w.bytes(empty.data().data() + at + 8, empty.size() - at - 8);
  System loaded(functional_config(), nullptr);
  loaded.add_domain(0, nullptr);
  snap::Reader r(w.data());
  loaded.load_state(r);
  snap::Writer again;
  loaded.save_state(again);
  EXPECT_EQ(again.size(), empty.size() + 8 + 8 + 4 * 8);
  EXPECT_EQ(loaded.read(0, 8, 40), 7);
}

// --- MESI timing layer ---------------------------------------------------------

/// Two cached executor tiles (0, 1) and the DRAM/directory tile 3 on a
/// 2x2 fabric, pumped the way the cosim serial spine pumps them: tick the
/// network, hand each tile's reassembled coherence frames to the caches,
/// let System::tick drain the directory NIC and the access queues.
struct MesiRig {
  noc::Fabric fabric;
  System sys;
  std::uint64_t cycle = 0;

  static noc::FabricConfig fabric_config() {
    noc::FabricConfig f;
    f.width = 2;
    f.height = 2;
    return f;
  }
  static MemConfig mem_config(int sets) {
    MemConfig c;
    c.dram_tile = 3;
    c.sets = sets;
    c.ways = 2;
    c.line_bytes = 64;
    c.lookahead = 4;
    return c;
  }

  explicit MesiRig(int sets = 4, int ways = 2)
      : fabric(fabric_config()), sys(make_cfg(sets, ways), &fabric) {
    sys.add_domain(0, nullptr);
    sys.add_domain(1, nullptr);
  }

  static MemConfig make_cfg(int sets, int ways) {
    MemConfig c = mem_config(sets);
    c.ways = ways;
    return c;
  }

  void step() {
    ++cycle;
    fabric.tick(cycle);
    std::vector<System::Incoming> delivered;
    for (int tile : {0, 1}) {
      std::vector<noc::Delivery> due;
      fabric.pop_due(tile, cycle, due);
      for (noc::Delivery& d : due) {
        if (!wire::is_coherence(d.opcode)) continue;
        delivered.push_back(
            System::Incoming{tile, d.opcode, std::move(d.payload)});
      }
    }
    sys.tick(cycle, delivered);
  }

  void settle(int max_steps = 400) {
    for (int i = 0; i < max_steps; ++i) {
      step();
      if (sys.idle() && fabric.idle()) return;
    }
    FAIL() << "memory system did not settle";
  }

  void load(int tag, std::int64_t addr) { sys.read(tag, cycle, addr); }
  void store(int tag, std::int64_t addr) { sys.write(tag, cycle, addr, 1); }
};

TEST(Mesi, ColdLoadFillsExclusiveThenHits) {
  MesiRig r;
  r.load(0, 0);
  r.settle();
  EXPECT_EQ(r.sys.stats().loads, 1u);
  EXPECT_EQ(r.sys.stats().misses, 1u);
  EXPECT_EQ(r.sys.stats().hits, 0u);
  EXPECT_EQ(r.sys.stats().dram_reads, 1u);
  EXPECT_EQ(r.sys.stats().load_use_count, 1u);
  // The line came back Exclusive: a second load — and even a first store —
  // hit locally without any new coherence traffic.
  std::uint64_t frames = r.sys.stats().coh_frames;
  r.load(0, 8);   // same 64-byte line
  r.store(0, 16);  // E -> M silent upgrade
  r.settle();
  EXPECT_EQ(r.sys.stats().hits, 2u);
  EXPECT_EQ(r.sys.stats().coh_frames, frames);
}

TEST(Mesi, ReadSharingDowngradesDirtyOwner) {
  MesiRig r;
  r.store(0, 0);  // tile 0 ends up Modified
  r.settle();
  r.load(1, 0);  // tile 1 reads the same line
  r.settle();
  // The owner flushed (writeback) but was NOT invalidated: both tiles now
  // hold Shared copies and hit locally.
  EXPECT_EQ(r.sys.stats().writebacks, 1u);
  EXPECT_EQ(r.sys.stats().invalidations, 0u);
  std::uint64_t frames = r.sys.stats().coh_frames;
  std::uint64_t hits = r.sys.stats().hits;
  r.load(0, 8);
  r.load(1, 8);
  r.settle();
  EXPECT_EQ(r.sys.stats().hits, hits + 2);
  EXPECT_EQ(r.sys.stats().coh_frames, frames);
}

TEST(Mesi, WriteInvalidatesEverySharer) {
  MesiRig r;
  r.store(0, 0);
  r.settle();
  r.load(1, 0);
  r.settle();  // both Shared now
  r.store(1, 0);  // upgrade: tile 0's copy must die
  r.settle();
  EXPECT_EQ(r.sys.stats().invalidations, 1u);
  // Tile 0 misses again afterwards; tile 1 hits (it owns M).
  std::uint64_t misses = r.sys.stats().misses;
  std::uint64_t hits = r.sys.stats().hits;
  r.store(1, 8);
  r.load(0, 8);
  r.settle();
  EXPECT_EQ(r.sys.stats().hits, hits + 1);
  EXPECT_EQ(r.sys.stats().misses, misses + 1);
}

TEST(Mesi, EvictionWritesBackDirtyVictim) {
  MesiRig r(/*sets=*/1, /*ways=*/1);  // every line maps to the single way
  r.store(0, 0);
  r.settle();
  EXPECT_EQ(r.sys.stats().writebacks, 0u);
  r.load(0, 64);  // different line, same (only) set: evicts the dirty line
  r.settle();
  EXPECT_EQ(r.sys.stats().evictions, 1u);
  EXPECT_EQ(r.sys.stats().writebacks, 1u);
  EXPECT_EQ(r.sys.stats().dram_writes, 1u);
}

TEST(Mesi, UncachedModeMissesEveryAccess) {
  MesiRig r(/*sets=*/0);
  r.load(0, 0);
  r.settle();
  r.load(0, 0);
  r.settle();
  EXPECT_EQ(r.sys.stats().misses, 2u);
  EXPECT_EQ(r.sys.stats().hits, 0u);
  EXPECT_EQ(r.sys.stats().dram_reads, 2u);
  // Same line back to back: the second access hits the open DRAM row.
  EXPECT_EQ(r.sys.stats().dram_row_hits, 1u);
}

TEST(Mesi, DramRowConflictCostsPrecharge) {
  MesiRig r(/*sets=*/0);
  r.load(0, 0);  // line 0: bank 0, row 0
  r.settle();
  // Line 512 maps to bank 0 (512 & 7 == 0) but row 1 (512 >> 3 >> 6):
  // the open row must be precharged first.
  r.load(0, 512 * 64);
  r.settle();
  EXPECT_EQ(r.sys.stats().dram_row_conflicts, 1u);
  EXPECT_EQ(r.sys.stats().dram_row_hits, 0u);
}

// --- OAL mem.read / mem.write end to end ---------------------------------------

/// 3x2 mesh: software boss at (0,0), three hardware workers, the DRAM
/// edge at tile (2,0) = 2. Each worker stores to its own slot of a shared
/// region and reads its neighbours' slots; boss collects done events.
std::unique_ptr<xtuml::Domain> make_mem_domain() {
  xtuml::DomainBuilder b("Mem");
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
             "generate job(n: 0, who: self) to self.w0;\n"
             "generate job(n: 1, who: self) to self.w1;\n"
             "generate job(n: 2, who: self) to self.w2;")
      .transition("Idle", "go", "Fanning")
      .transition("Fanning", "go", "Fanning");
  boss.state("Collect", "self.acks = self.acks + 1;")
      .transition("Fanning", "done", "Collect")
      .transition("Collect", "done", "Collect")
      .transition("Collect", "go", "Fanning");
  for (int i = 0; i < 3; ++i) {
    b.edit("W" + std::to_string(i))
        .attr("sum", DataType::kInt)
        .attr("mine", DataType::kInt)
        .event("job", {{"n", DataType::kInt}, b.ref_param("who", "Boss")})
        .state("Work",
               // Own slot: written then read back (store-to-load
               // forwarding makes this exact). Neighbour slots: whatever
               // is visible — deterministic, asserted by the grid below.
               "mem.write(param.n * 8, param.n * 100 + 7);\n"
               "self.mine = mem.read(param.n * 8);\n"
               "self.sum = self.sum + mem.read(((param.n + 1) % 3) * 8)\n"
               "         + mem.read(((param.n + 2) % 3) * 8)\n"
               "         + mem.read(4096);\n"
               "generate done(v: param.n) to param.who;")
        .transition("Work", "job", "Work");
  }
  return b.take();
}

marks::MarkSet mem_mesh_marks(bool with_mem = true) {
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};
  for (int i = 0; i < 3; ++i) {
    std::string cls = "W" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     ScalarValue(std::int64_t{tiles[i][0]}));
    m.set_class_mark(cls, marks::kTileY,
                     ScalarValue(std::int64_t{tiles[i][1]}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{3}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  if (with_mem) {
    m.set_domain_mark(marks::kDramTile, ScalarValue(std::int64_t{2}));
    m.set_domain_mark(marks::kCacheSets, ScalarValue(std::int64_t{4}));
    m.set_domain_mark(marks::kCacheWays, ScalarValue(std::int64_t{2}));
    m.set_domain_mark(marks::kCacheLineBytes, ScalarValue(std::int64_t{64}));
  }
  return m;
}

/// The fanout population booted and kicked three times, 400 cycles apart,
/// and captured; the cosim stays open for attributes and stats.
struct MemFanout {
  MappedFixture fx{make_mem_domain(), mem_mesh_marks()};
  CoSimulation cs;
  testing::FanoutHandles h;
  Observed seen;

  MemFanout(int threads, int window, fault::Plan* plan)
      : cs(*fx.system, [&] {
          CoSimConfig cfg;
          cfg.threads = threads;
          cfg.window = window;
          cfg.fault = plan;
          return cfg;
        }()) {
    h = testing::boot_fanout(cs);
    EXPECT_NE(cs.mem_system(), nullptr);
    Recorder rec(cs);
    for (int i = 0; i < 3; ++i) {
      cs.inject(h.boss, "go");
      cs.run_cycles(400);
    }
    seen = rec.take();
  }

  std::int64_t attr(const InstanceHandle& h, const char* name) {
    const auto* a = fx.domain->cls(h.cls).find_attribute(name);
    return std::get<std::int64_t>(
        cs.executor_of(h.cls).database().get_attr(h, a->id));
  }
};

TEST(MemCosim, ValuesFlowThroughSharedMemory) {
  MemFanout r(1, 1, nullptr);
  EXPECT_EQ(r.attr(r.h.boss, "acks"), 9);  // 3 rounds x 3 workers acked
  // Each worker read back exactly what it wrote (forwarding).
  EXPECT_EQ(r.attr(r.h.w0, "mine"), 7);
  EXPECT_EQ(r.attr(r.h.w1, "mine"), 107);
  EXPECT_EQ(r.attr(r.h.w2, "mine"), 207);
  // By round 2 every round-1 store is long visible (rounds are 400 cycles
  // apart, L is single-digit), so each worker accumulated its neighbours'
  // values in rounds 2 and 3 at the latest.
  EXPECT_GE(
      r.attr(r.h.w0, "sum") + r.attr(r.h.w1, "sum") + r.attr(r.h.w2, "sum"),
      2 * (107 + 207 + 7 + 207 + 7 + 107));
  // The timing layer saw the traffic: 3 rounds x 3 workers x (1 store +
  // 4 loads — mem.read(own) + two neighbours + one cold address).
  EXPECT_EQ(r.cs.mem_system()->stats().stores, 9u);
  EXPECT_EQ(r.cs.mem_system()->stats().loads, 36u);
}

TEST(MemCosim, ByteIdenticalAcrossThreadsWindowsAndFaults) {
  for (bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faults" : "fault-free");
    auto spec = [&] {
      fault::FaultSpec s;
      if (faulty) {
        s.seed = 7;
        s.flit_drop = 0.02;
        s.flit_corrupt = 0.02;
      }
      return s;
    }();
    fault::Plan serial_plan(spec);
    MemFanout serial(1, 1, faulty ? &serial_plan : nullptr);
    for (int threads : {2, 8}) {
      for (int window : {0, 1}) {
        fault::Plan plan(spec);
        MemFanout par(threads, window, faulty ? &plan : nullptr);
        expect_identical(par.seen, serial.seen,
                         "threads=" + std::to_string(threads) +
                             " window=" + std::to_string(window));
      }
    }
  }
}

TEST(MemCosim, SnapshotPortsAcrossThreadCounts) {
  auto boot = [](CoSimulation& cs) {
    const InstanceHandle boss = testing::boot_fanout(cs).boss;
    cs.inject(boss, "go");
    return boss;
  };

  // Uninterrupted serial reference, recorded from cycle 60 on.
  MappedFixture fx_ref(make_mem_domain(), mem_mesh_marks());
  CoSimulation ref(*fx_ref.system);
  auto boss_ref = boot(ref);
  ref.run_cycles(60);
  Recorder ref_rec(ref);
  ref.inject(boss_ref, "go");
  ref.run_cycles(340);
  const Observed want = ref_rec.take();

  // Save at cycle 60 (stores in flight, caches warm), restore under other
  // configurations, continue identically.
  MappedFixture fx_a(make_mem_domain(), mem_mesh_marks());
  CoSimulation a(*fx_a.system);
  auto boss_a = boot(a);
  a.run_cycles(60);
  std::vector<std::uint8_t> bytes = snap::save(a);

  for (int threads : {1, 8}) {
    MappedFixture fx_b(make_mem_domain(), mem_mesh_marks());
    CoSimConfig cfg;
    cfg.threads = threads;
    CoSimulation b(*fx_b.system, cfg);
    snap::restore(b, bytes.data(), bytes.size());
    Recorder rec(b);
    // The restored world reuses its own handles; boss is the only Boss.
    b.inject(boss_a, "go");
    b.run_cycles(340);
    expect_identical(rec.take(), want, "threads=" + std::to_string(threads));
  }
}

TEST(MemCosim, SnapshotRefusesMemoryWorldMismatch) {
  // A snapshot from a memory-less world must not load into a world whose
  // marks added a hierarchy (and vice versa) — the saved state would be
  // structurally incomplete. The interface digest catches re-marked
  // systems; the explicit mem flag in the C section is the backstop.
  MappedFixture fx_none(make_mem_domain(), mem_mesh_marks(false));
  CoSimulation plain(*fx_none.system);
  plain.create("W0");
  plain.run_cycles(10);
  std::vector<std::uint8_t> bytes = snap::save(plain);

  MappedFixture fx_mem(make_mem_domain(), mem_mesh_marks(true));
  CoSimulation withmem(*fx_mem.system);
  withmem.create("W0");
  EXPECT_THROW(snap::restore(withmem, bytes.data(), bytes.size()),
               snap::SnapError);
}

/// Three hardware nodes on the mem mesh that each dispatch every cycle
/// (every tick re-arms itself, so the model is token-conserving). Each
/// dispatch stores to two addresses of one line and reads two back. With
/// `shared`, all three nodes use line 0, so every window holds several
/// domains' stores to one address; without, each node owns a line that
/// stays in its own cache, so the timing layer goes quiet after warm-up.
/// Either way the set of addresses written stays fixed.
std::unique_ptr<xtuml::Domain> make_spin_domain(bool shared) {
  xtuml::DomainBuilder b("MemSpin");
  for (int i = 0; i < 3; ++i) b.cls("W" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    const std::string line = std::to_string(shared ? 0 : 64 * (i + 1));
    std::string action = "self.acc = (self.acc * 33 + ";
    action += std::to_string(7 + i);
    action += ") % 65537;\nmem.write(";
    action += line;
    action += ", self.acc);\nmem.write(";
    action += line;
    action += " + 8 + (self.acc % 4) * 8, self.acc);\n";
    action += "self.seen = (self.seen * 31 + mem.read(";
    action += line;
    action += ")\n             + mem.read(";
    action += line;
    action +=
        " + 8 + (self.acc / 4 % 4) * 8)) % 1000003;\n"
        "generate tick() to self;";
    b.edit("W" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .attr("seen", DataType::kInt)
        .event("tick")
        .state("Spin", action)
        .transition("Spin", "tick", "Spin");
  }
  return b.take();
}

/// The mem mesh with 4-cycle links, so the auto window opens above 1.
marks::MarkSet spin_marks() {
  marks::MarkSet m = mem_mesh_marks();
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
  return m;
}

void boot_spin(CoSimulation& cs) {
  for (int i = 0; i < 3; ++i) {
    cs.inject(cs.create("W" + std::to_string(i)), "tick");
  }
}

/// snap::save bytes of the spin world every 12 cycles (a multiple of every
/// window tested, so each save lands on a window boundary).
std::vector<std::vector<std::uint8_t>> spin_checkpoints(int threads,
                                                        int window) {
  MappedFixture fx(make_spin_domain(true), spin_marks());
  CoSimConfig cfg;
  cfg.threads = threads;
  cfg.window = window;
  CoSimulation cs(*fx.system, cfg);
  EXPECT_NE(cs.mem_system(), nullptr);
  if (window == 0) {
    EXPECT_GT(cs.window(), 1);
  }
  boot_spin(cs);
  std::vector<std::vector<std::uint8_t>> saves;
  for (int i = 0; i < 20; ++i) {
    cs.run_cycles(12);
    saves.push_back(snap::save(cs));
  }
  return saves;
}

TEST(MemCosim, CheckpointBytesIdenticalAcrossThreadsAndWindows) {
  // A window holds several in-flight versions of address 0 while a
  // one-cycle window holds one, so only a value store that saves the same versions at the
  // same cycle, whatever the window, keeps the checkpoint bytes equal.
  const auto want = spin_checkpoints(1, 1);
  for (int threads : {1, 2, 8}) {
    for (int window : {1, 2, 0}) {
      if (threads == 1 && window == 1) continue;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " window=" + std::to_string(window));
      const auto got = spin_checkpoints(threads, window);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(got[i] == want[i])
            << "checkpoint at cycle " << 12 * (i + 1) << " differs";
      }
    }
  }
}

TEST(MemCosim, CheckpointSizeIsFlat) {
  // The private spin model stores twice per node and cycle, forever, to
  // fifteen addresses. With tracing off nothing else in the checkpoint
  // grows with time, so its size at 10N cycles must match its size at N:
  // the value store keeps one version per address, not one per store.
  MappedFixture fx(make_spin_domain(false), spin_marks());
  CoSimConfig cfg;
  cfg.trace_enabled = false;
  CoSimulation cs(*fx.system, cfg);
  boot_spin(cs);
  cs.run_cycles(400);
  const double at_n = static_cast<double>(snap::save(cs).size());
  cs.run_cycles(3600);
  const double at_10n = static_cast<double>(snap::save(cs).size());
  EXPECT_LE(at_10n, 1.1 * at_n) << "N: " << at_n << " bytes, 10N: " << at_10n;
  EXPECT_GE(at_10n, 0.9 * at_n) << "N: " << at_n << " bytes, 10N: " << at_10n;
}

// --- the no-memory-marks world is unchanged ------------------------------------

TEST(MemCosim, NoMemoryMarksWorldIsPinned) {
  MappedFixture fx(make_mem_domain(), mem_mesh_marks(false));
  CoSimulation cs(*fx.system);
  EXPECT_EQ(cs.mem_system(), nullptr);
  cs.inject(testing::boot_fanout(cs).boss, "go");
  cs.run_cycles(200);
  obs::Snapshot snap = cs.report();
  EXPECT_EQ(snap.find("memory"), nullptr);
  // Golden fingerprint over every observable byte of the run. If this
  // moves, the memory subsystem changed the behaviour of a world that
  // never asked for it — that is a bug, not a baseline refresh. (It was
  // re-pinned once, when report() gained its "classes" section; without
  // that section the report reproduces the earlier pin.)
  std::string all;
  for (const auto& hw : cs.hw_domains()) {
    all += hw->executor().trace().to_string();
  }
  all += cs.sw_executor().trace().to_string();
  all += snap.to_json();
  EXPECT_EQ(fnv1a(all), 0x31fdcbb5d5b1187full)
      << "fingerprint: " << std::hex << fnv1a(all);
}

// --- a cached coherent mesh is pinned -----------------------------------------

/// A 4x4 mesh with the DRAM tile at 5 and fourteen hardware nodes on the
/// other tiles but 0. Each node owns one token and passes it on to node
/// (i + 3) % 14 on every dispatch. A dispatch reads one line of a 12-line
/// private working set (the cache holds 8) and writes it every second time.
/// Every eighth time it reads a line its group of four shares, and every
/// 32nd time it writes that line too. This is a smaller
/// `mesh_coherent`: misses, evictions, writebacks, sharing and
/// invalidation all cross a fabric with 4-cycle links and 32-byte flits.
constexpr int kCohNodes = 14;

std::unique_ptr<xtuml::Domain> make_coherent_mesh_domain() {
  xtuml::DomainBuilder b("CoherentMesh");
  for (int i = 0; i < kCohNodes; ++i) b.cls("N" + std::to_string(i));
  for (int i = 0; i < kCohNodes; ++i) {
    b.edit("N" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .attr("cur", DataType::kInt)
        .attr("base", DataType::kInt)
        .attr("shared", DataType::kInt)
        .ref_attr("peer", "N" + std::to_string((i + 3) % kCohNodes))
        .event("tok", {{"v", DataType::kInt}})
        .state("Work",
               "n = self.cur;\n"
               "a = self.base + ((n / 4) % 12) * 32;\n"
               "x = mem.read(a);\n"
               "if (n % 2 == 0)\n"
               "  mem.write(a, (x + param.v) % 65537);\n"
               "end if;\n"
               "y = 0;\n"
               "if (n % 8 == 0)\n"
               "  y = mem.read(self.shared);\n"
               "  if (n % 32 == 0)\n"
               "    mem.write(self.shared, (y + 1) % 65537);\n"
               "  end if;\n"
               "end if;\n"
               "self.cur = n + 1;\n"
               "self.acc = (self.acc * 31 + x + y) % 65537;\n"
               "generate tok(v: self.acc) to self.peer;")
        .transition("Work", "tok", "Work");
  }
  return b.take();
}

marks::MarkSet coherent_mesh_marks() {
  marks::MarkSet m;
  int tile = 1;
  for (int i = 0; i < kCohNodes; ++i, ++tile) {
    if (tile == 5) ++tile;
    const std::string cls = "N" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX, ScalarValue(std::int64_t{tile % 4}));
    m.set_class_mark(cls, marks::kTileY, ScalarValue(std::int64_t{tile / 4}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kFlitBytes, ScalarValue(std::int64_t{32}));
  m.set_domain_mark(marks::kDramTile, ScalarValue(std::int64_t{5}));
  m.set_domain_mark(marks::kCacheSets, ScalarValue(std::int64_t{4}));
  m.set_domain_mark(marks::kCacheWays, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kCacheLineBytes, ScalarValue(std::int64_t{32}));
  return m;
}

TEST(MemCosim, CachedMeshIsPinned) {
  // Golden fingerprints of the report and of the checkpoint after 2,000
  // cycles, equal at every threads x window setting. If either moves, the
  // memory timing layer or the fabric under it changed what it computes.
  MappedFixture fx(make_coherent_mesh_domain(), coherent_mesh_marks());
  for (int threads : {1, 3}) {
    for (int window : {1, 0}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " window=" + std::to_string(window));
      CoSimConfig cfg;
      cfg.threads = threads;
      cfg.window = window;
      CoSimulation cs(*fx.system, cfg);
      ASSERT_NE(cs.mem_system(), nullptr);
      std::vector<InstanceHandle> h;
      for (int i = 0; i < kCohNodes; ++i) {
        h.push_back(cs.create_with(
            "N" + std::to_string(i),
            {{"acc", Value(std::int64_t{i * 97 + 5})},
             {"base", Value(std::int64_t{4096} * (i + 1))},
             {"shared", Value(std::int64_t{1 << 20} + 64 * (i / 4))}}));
      }
      for (int i = 0; i < kCohNodes; ++i) {
        const auto u = static_cast<std::size_t>(i);
        const auto* peer =
            fx.domain->cls(h[u].cls).find_attribute("peer");
        cs.executor_of(h[u].cls).database().set_attr(
            h[u], peer->id, Value(h[(u + 3) % kCohNodes]));
        cs.inject(h[u], "tok", {Value(std::int64_t{i + 1})});
      }
      cs.run_cycles(2000);
      const MemStats& st = cs.mem_system()->stats();
      EXPECT_GT(st.evictions, 0u);
      EXPECT_GT(st.invalidations, 0u);
      obs::Snapshot report = cs.report();
      report["run"]["threads"] = nullptr;
      report["run"]["window"] = nullptr;
      const std::vector<std::uint8_t> bytes = snap::save(cs);
      const std::uint64_t report_hash = fnv1a(report.to_json());
      const std::uint64_t state_hash =
          fnv1a(std::string(bytes.begin(), bytes.end()));
      EXPECT_EQ(report_hash, 0x61c1f0419c71eec5ull)
          << "report: " << std::hex << report_hash;
      EXPECT_EQ(state_hash, 0xa4fa981f560b8468ull) << "checkpoint: " << std::hex << state_hash;
    }
  }
}

// --- TrafficGen memory pattern -------------------------------------------------

struct TrafficOutcome {
  std::uint64_t gets = 0;       ///< kGetS requests injected
  std::uint64_t getm = 0;       ///< kGetM requests injected
  std::uint64_t dram_reads = 0;
  std::uint64_t coh_frames = 0;  ///< directory responses (incl. Inv)
};

TrafficOutcome run_memory_traffic(double write_fraction) {
  noc::FabricConfig fcfg;
  fcfg.width = 2;
  fcfg.height = 2;
  noc::Fabric fabric(fcfg);
  MemConfig mcfg;
  mcfg.dram_tile = 3;
  mcfg.sets = 4;
  System sys(mcfg, &fabric);
  sys.add_domain(0, nullptr);
  sys.add_domain(1, nullptr);
  sys.add_domain(2, nullptr);

  noc::TrafficSpec spec;
  spec.pattern = noc::TrafficPattern::kMemory;
  spec.seed = 11;
  spec.offered_load = 0.2;
  spec.hotspot_tile = 3;  // the directory tile
  spec.write_fraction = write_fraction;
  spec.record = true;
  noc::TrafficGen gen(spec, fabric.topology());

  std::uint64_t cycle = 0;
  for (int i = 0; i < 400; ++i) {
    if (i < 100) gen.tick(fabric, cycle);  // then drain
    ++cycle;
    fabric.tick(cycle);
    std::vector<System::Incoming> delivered;
    for (int tile : {0, 1, 2}) {
      std::vector<noc::Delivery> due;
      fabric.pop_due(tile, cycle, due);
      for (noc::Delivery& d : due) {
        if (!wire::is_coherence(d.opcode)) continue;
        delivered.push_back(
            System::Incoming{tile, d.opcode, std::move(d.payload)});
      }
    }
    sys.tick(cycle, delivered);
  }
  TrafficOutcome out;
  for (const noc::TrafficEvent& e : gen.trace()) {
    if (e.opcode == wire::opcode(wire::kGetM)) ++out.getm;
    if (e.opcode == wire::opcode(wire::kGetS)) ++out.gets;
  }
  EXPECT_EQ(out.gets + out.getm, gen.frames_sent());
  out.dram_reads = sys.stats().dram_reads;
  out.coh_frames = sys.stats().coh_frames;
  return out;
}

TEST(MemTraffic, MemoryPatternDrivesDirectory) {
  // The write fraction is the knob: it selects the request opcode on the
  // wire, and the directory answers everything that arrives.
  TrafficOutcome reads = run_memory_traffic(0.0);
  EXPECT_GT(reads.gets, 0u);
  EXPECT_EQ(reads.getm, 0u);
  EXPECT_GT(reads.dram_reads, 0u);
  EXPECT_GT(reads.coh_frames, 0u);

  TrafficOutcome writes = run_memory_traffic(1.0);
  EXPECT_EQ(writes.gets, 0u);
  EXPECT_GT(writes.getm, 0u);
  EXPECT_GT(writes.dram_reads, 0u);

  TrafficOutcome mixed = run_memory_traffic(0.5);
  EXPECT_GT(mixed.gets, 0u);
  EXPECT_GT(mixed.getm, 0u);

  // Same spec, same tape: the generator is a pure function of the seed.
  TrafficOutcome again = run_memory_traffic(0.5);
  EXPECT_EQ(mixed.gets, again.gets);
  EXPECT_EQ(mixed.getm, again.getm);
  EXPECT_EQ(mixed.coh_frames, again.coh_frames);
  EXPECT_EQ(mixed.dram_reads, again.dram_reads);
}

}  // namespace
}  // namespace xtsoc::mem
