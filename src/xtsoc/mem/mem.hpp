// xtsoc::mem — the mark-driven memory hierarchy.
//
// Marks choose the platform's storage exactly the way they choose its
// interconnect: `cache.*` domain marks pick per-tile private cache geometry,
// `dram.*` marks place and time a DRAM edge model, and no model text changes
// when they do. Mapped actions reach memory through the OAL `mem.read` /
// `mem.write` port; the hierarchy decides what that access *costs*, never
// what it *returns*.
//
// The subsystem is split into two layers with very different obligations:
//
//   * The FUNCTIONAL layer decides values. A store issued by domain `tag`
//     at cycle c becomes globally visible at c + L, where L is the mapped
//     system's lookahead (a pure function of the marks). Until then it
//     lives in the issuing domain's store buffer, where the domain's own
//     reads see it immediately (store-to-load forwarding). At every serial
//     point the cosim loop calls append_visible(horizon); stores whose
//     visibility cycle is within the horizon leave the buffers in the one
//     global order (visibility cycle, domain tag, sequence). The value
//     store behind them is bounded: per address, one SETTLED version (the
//     newest one every later read sees) plus the IN-FLIGHT versions the
//     latest append_visible added, which are the only ones a read can
//     still pass over. Each append_visible first folds the previous
//     batch into the settled values, keeping only the newest per address.
//     A read checks its own store buffer, then the in-flight versions
//     newest-first for the first one visible at the reading cycle or
//     written by the reader itself, then the settled value, then 0.
//     Because L >= any legal window and the store only changes at serial
//     points, results are byte-identical at any threads x window x faults
//     setting, and the state holds one settled version per address
//     written, however long the run.
//
//     The call discipline that makes the fold exact: every read at cycle
//     c that follows append_visible(h) has c >= h_prev, the horizon of the
//     append_visible call before it. Every version folded at
//     append_visible(h) became visible at or before h_prev, so it is
//     visible to every such read, and the newest one hides all older ones.
//     The cosim loop reads at cycles in (h_prev, h]: a window (base, end]
//     publishes h = end after h_prev = base, so a one-cycle window c
//     publishes h = c after h_prev = c - 1. The bound is inclusive, so a read at
//     c = h_prev is exact too: MemFunctional.OwnStoreForwardsImmediately-
//     OthersWaitLookahead calls append_visible(12), append_visible(13),
//     then reads at 12, and every settled version became visible at or
//     before 12.
//
//   * The TIMING layer decides costs, and only costs. Every access is also
//     recorded (cycle-stamped, per domain); System::tick(cycle) — called
//     once per cycle from phase B, the serial spine, at every window size
//     — replays those records through per-tile MESI caches, a
//     directory at the DRAM tile, and a bank/row-aware DRAM model.
//     Coherence messages are real frames on the noc::Fabric (opcodes in
//     the reserved kCohOpcodeBase range), so they share flit segmentation,
//     credit flow and fault injection with model traffic. A dropped
//     coherence frame can starve the timing pipeline — counters stop
//     moving — but can never change a loaded value.
//
//     The replay costs what is active. Caches are a vector indexed by
//     tile. tick() merges only the domains listed as possibly holding
//     records: the cosim notes each domain that ran a window
//     (note_active), a direct read() or write() asks for one pass over
//     every domain, and a domain leaves the list once its records are
//     consumed. The list is written on the serial spine only, and the
//     merge order stays (stamp, tag, issue order).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "xtsoc/mem/wire.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::noc {
class Fabric;
struct Delivery;
}
namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::mem {

/// Mark-derived configuration (see mapping::MemSpec). `sets == 0` selects
/// uncached mode: every access is a miss serviced by the DRAM tile.
struct MemConfig {
  int dram_tile = 0;
  int sets = 0;        ///< cache sets per tile (power of two; 0 = uncached)
  int ways = 2;        ///< associativity (power of two)
  int line_bytes = 64; ///< cache line / DRAM burst size (power of two)
  int hit_latency = 1; ///< cycles for a cache hit
  int t_rcd = 2;       ///< DRAM activate-to-column delay
  int t_cas = 2;       ///< DRAM column access latency
  int t_rp = 2;        ///< DRAM precharge latency
  int flit_bytes = 4;  ///< fabric flit payload width (for flit accounting)
  std::uint64_t lookahead = 1;  ///< store visibility delay L
};

struct MemStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_conflicts = 0;
  std::uint64_t coh_frames = 0;
  std::uint64_t coh_flits = 0;
  std::uint64_t coh_payload_bytes = 0;
  std::uint64_t load_use_sum = 0;    ///< completed-access latency total
  std::uint64_t load_use_count = 0;  ///< completed accesses

  double mean_load_use() const {
    return load_use_count == 0
               ? 0.0
               : static_cast<double>(load_use_sum) /
                     static_cast<double>(load_use_count);
  }
};

class System {
public:
  System(const MemConfig& config, noc::Fabric* fabric);
  ~System();

  /// Register an executor domain living on `tile`. Tags are assigned in
  /// call order and must match the cosim serial schedule (hw domains
  /// ascending, then sw). `exec` supplies the cycle stamp for accesses.
  int add_domain(int tile, const runtime::Executor* exec);

  /// The runtime::MemoryPort to attach to domain `tag`'s executor.
  runtime::MemoryPort* port(int tag);

  // --- functional layer ------------------------------------------------------

  /// Value visible to `tag` at `cycle` (own buffer first, then the
  /// in-flight versions, then the settled value; unwritten addresses read
  /// 0). Requires `cycle` >= the horizon of the append_visible call before
  /// the latest one (see the contract above). Also records the access for
  /// the timing layer. A direct call is a serial one: the next tick() looks
  /// for its record. The executors' ports record the same way but touch
  /// only domain-local state plus the read-only value store, so parallel
  /// window phases may use them concurrently from distinct tags (and the
  /// caller notes the domains that ran, see note_active).
  std::int64_t read(int tag, std::uint64_t cycle, std::int64_t addr) {
    sweep_ = true;
    return load(tag, cycle, addr);
  }

  /// Buffer a store; it becomes globally visible at cycle + L. Serial, as
  /// read() is.
  void write(int tag, std::uint64_t cycle, std::int64_t addr,
             std::int64_t value) {
    sweep_ = true;
    store(tag, cycle, addr, value);
  }

  /// Serial point: fold the in-flight versions into the settled values,
  /// then move every buffered store with visibility <= horizon in flight,
  /// ordered by (visibility, tag, sequence). Call with the last cycle
  /// about to be simulated before the next serial point.
  void append_visible(std::uint64_t horizon);

  /// Serial point: domain `tag`'s executor ran, so its port may have
  /// recorded accesses since the last tick(). The timing replay looks only
  /// at the domains noted here, or by a direct read() or write(), and at
  /// those still holding records, so a run pays for the domains that ran,
  /// not for every domain. A caller that drives executors with ports
  /// attached must note each one before the next tick().
  void note_active(int tag);

  // --- timing layer ----------------------------------------------------------

  /// One coherence frame delivered to an executor tile this cycle (the
  /// cosim loop drains these from the per-tile channels in tag order).
  struct Incoming {
    int dst_tile = 0;
    std::uint32_t opcode = 0;
    std::vector<std::uint8_t> payload;
  };

  /// Advance the observational model to `cycle`: apply delivered cache-side
  /// frames, drain the directory's own NIC, then consume access records
  /// stamped at or before `cycle` in (cycle, tag) order. Serial-spine only.
  void tick(std::uint64_t cycle, const std::vector<Incoming>& delivered);

  /// True when no miss is outstanding and no record is queued. Faults may
  /// keep this false forever (a lost response starves an MSHR); quiescence
  /// decisions must not depend on it.
  bool idle() const;

  const MemStats& stats() const { return stats_; }
  const MemConfig& config() const { return config_; }
  bool cached() const { return config_.sets > 0; }

  // --- checkpointing ---------------------------------------------------------
  /// Everything cycle-dependent: store buffers, the value store, cache
  /// arrays, MSHRs, directory state, DRAM timers, counters. The config is
  /// construction-owned (it comes from the marks). At a save point every
  /// published version is visible to every later read, so the value store
  /// is written as one version per address, the newest: a function of the
  /// cycle alone, whatever the window. The loader accepts any number of
  /// versions per address and keeps the last (the newest).
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);
  /// Refuse a restored value store holding a version that becomes visible
  /// after `cycle`, the cycle the checkpoint was taken at: every saved
  /// version was visible by then, and reads rely on it (see read()).
  /// Throws snap::SnapError.
  void check_restored(std::uint64_t cycle) const;

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct StoreRec {
    std::int64_t addr = 0;
    std::int64_t value = 0;
    std::uint64_t vis = 0;  ///< cycle the store becomes globally visible
    std::uint64_t seq = 0;  ///< per-domain issue order
  };
  struct AccessRec {
    std::uint64_t cycle = 0;
    std::int64_t addr = 0;
    std::uint8_t is_write = 0;
  };
  struct Version {
    std::int64_t value = 0;
    std::uint64_t vis = 0;
    int tag = 0;
    std::uint64_t seq = 0;
  };
  /// One address of the value store. A cell exists once a version of its
  /// address has been published; until one settles, `settled` is the
  /// all-zero version, which reads as the unwritten value 0.
  struct Cell {
    Version settled;                 ///< newest version every read sees
    std::vector<Version> in_flight;  ///< latest batch, (vis, tag, seq) order
  };

  class Port : public runtime::MemoryPort {
  public:
    Port(System* sys, int tag, const runtime::Executor* exec)
        : sys_(sys), tag_(tag), exec_(exec) {}
    std::int64_t read(std::int64_t addr) override {
      return sys_->load(tag_, exec_->now(), addr);
    }
    void write(std::int64_t addr, std::int64_t value) override {
      sys_->store(tag_, exec_->now(), addr, value);
    }

  private:
    System* sys_;
    int tag_;
    const runtime::Executor* exec_;
  };

  struct Domain {
    int tile = 0;
    const runtime::Executor* exec = nullptr;
    std::uint64_t seq = 0;
    std::vector<StoreRec> store_buf;  ///< ascending (vis, seq)
    std::deque<AccessRec> accesses;   ///< ascending cycle
  };

  // MESI line states.
  enum : std::uint8_t { kI = 0, kS = 1, kE = 2, kM = 3 };

  struct CacheLine {
    std::int64_t line = -1;  ///< line address (addr >> line bits), -1 invalid
    std::uint8_t state = kI;
    std::uint64_t lru = 0;
  };
  struct Mshr {
    bool valid = false;
    std::int64_t line = 0;
    std::uint8_t want = kS;  ///< kS for loads, kM for stores
    std::uint8_t is_write = 0;
    std::uint64_t issue = 0;
    int way = 0;  ///< reserved victim way (cached mode)
  };
  struct TileCache {
    std::vector<CacheLine> lines;  ///< sets * ways (empty when uncached)
    Mshr mshr;
    std::deque<AccessRec> blocked;  ///< accesses waiting behind the miss
    std::uint64_t lru_tick = 0;
  };

  struct DirPending {
    int req_tile = 0;
    std::uint8_t type = wire::kGetS;
    int acks_left = 0;
  };
  struct DirLine {
    std::uint8_t state = 0;    ///< 0 uncached, 1 shared, 2 modified
    std::vector<int> sharers;  ///< sorted sharer tiles / [owner] if modified
    bool busy = false;
    DirPending pending;
    std::deque<DirPending> queue;  ///< deferred requests (acks_left unused)
  };

  struct DramBank {
    std::int64_t open_row = -1;
    std::uint64_t busy_until = 0;
  };

  /// read() and write() without the serial sweep request: the ports'
  /// domain-local path.
  std::int64_t load(int tag, std::uint64_t cycle, std::int64_t addr);
  void store(int tag, std::uint64_t cycle, std::int64_t addr,
             std::int64_t value);
  std::int64_t line_of(std::int64_t addr) const;
  void send(int src, int dst, wire::Msg type, std::uint8_t aux,
            std::int64_t line, bool data_sized, std::uint64_t cycle,
            std::uint64_t extra);
  std::uint64_t dram_access(std::uint64_t cycle, std::int64_t line,
                            bool is_write);
  void process_access(int tile, const AccessRec& rec, std::uint64_t cycle);
  void cache_handle(int tile, const wire::Decoded& msg, std::uint64_t cycle);
  void dir_handle(const wire::Decoded& msg, std::uint64_t cycle);
  void dir_request(int req_tile, std::uint8_t type, std::int64_t line,
                   std::uint64_t cycle);
  void dir_grant(int req_tile, std::uint8_t granted, std::int64_t line,
                 std::uint64_t cycle);
  void dir_complete(std::int64_t line, std::uint64_t cycle);
  void drain_blocked(int tile, std::uint64_t cycle);
  int find_way(TileCache& c, std::int64_t line) const;
  int pick_victim(int tile, TileCache& c, std::int64_t line,
                  std::uint64_t cycle);

  MemConfig config_;
  noc::Fabric* fabric_;
  int line_shift_ = 6;

  std::vector<Domain> domains_;              // by tag
  std::vector<std::unique_ptr<Port>> ports_; // by tag
  /// The domains that may hold access records, ascending tags: every
  /// domain with a record is listed. note_active() adds to it, tick()
  /// reads and prunes it, and tick() rebuilds it with one pass over every
  /// domain only when `sweep_` says a direct read() or write(), or a
  /// restore, may have added records. Written on the serial spine only.
  std::vector<std::size_t> holding_;
  bool sweep_ = false;
  std::vector<std::size_t> due_tags_;        // tick() scratch
  /// The directory NIC's deliveries for one tick. Reused scratch.
  std::vector<noc::Delivery> dir_due_;
  /// append_visible's (tag, store) batch. Reused scratch.
  std::vector<std::pair<int, StoreRec>> visible_batch_;

  std::map<std::int64_t, Cell> cells_;                ///< addr -> value
  std::vector<Cell*> in_flight_;                      ///< cells in flight
  /// Private caches indexed by tile (entries at tiles without a domain
  /// stay empty and unused), and the tiles that have one, ascending.
  std::vector<TileCache> caches_;
  std::vector<int> cache_tiles_;
  std::map<std::int64_t, DirLine> dir_;               ///< line -> directory
  DramBank banks_[8];
  MemStats stats_;
};

}  // namespace xtsoc::mem
