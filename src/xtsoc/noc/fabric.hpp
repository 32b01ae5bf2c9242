// Fabric: a cycle-accurate network-on-chip over a pluggable Topology
// (2D mesh by default; torus and ring ride the same machinery).
//
// Endpoints are tiles; each tile has a Router and a NIC. A frame
// (opcode + payload bytes) handed to send_frame() is segmented by the
// source NIC into link-width flits, injected at one flit per cycle,
// routed dimension-ordered hop by hop under credit-based flow control, and
// reassembled by the destination NIC; pop_due() hands back completed
// frames. The whole network advances exactly one cycle per tick(), and
// every decision
// (routing, arbitration, injection) is a deterministic function of the
// state at the start of the tick — two runs of the same traffic produce
// identical cycle-by-cycle behaviour, which is what lets NoC-mapped
// co-simulations be compared against the abstract executor.
//
// Everything is instrumented: per-router flit counts and buffer
// high-water marks, per-link utilization, and an end-to-end frame latency
// histogram — the numbers that make the cost of a bad placement visible.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "xtsoc/common/index_set.hpp"
#include "xtsoc/noc/ring.hpp"
#include "xtsoc/noc/router.hpp"
#include "xtsoc/noc/topology.hpp"
#include "xtsoc/obs/registry.hpp"

namespace xtsoc::fault {
class Plan;
}

namespace xtsoc::noc {

/// Thrown on malformed fabric configuration or misuse (bad tile index,
/// send to self): programming errors of the layer above, not model errors.
class FabricError : public std::runtime_error {
public:
  explicit FabricError(const std::string& what) : std::runtime_error(what) {}
};

struct FabricConfig {
  int width = 2;            ///< tile columns
  int height = 2;           ///< tile rows
  /// Network shape (`topology` mark). Torus needs both dimensions >= 2;
  /// ring needs height == 1.
  TopologyKind topology = TopologyKind::kMesh;
  /// Routing policy (`routing` mark). Adaptive cannot be combined with NoC
  /// fault injection (the retransmit detour presumes dimension-order
  /// primary/fallback paths).
  RoutePolicy routing = RoutePolicy::kXY;
  int link_latency = 1;     ///< cycles a flit spends on a router-to-router link
  int flit_payload_bytes = 4;  ///< link width: payload bytes per flit
  int fifo_depth = 4;       ///< per-input-port buffer depth (= credits)
  obs::Registry* obs = nullptr;  ///< optional observability sink ("noc" track)
  /// Optional fault plan (src/xtsoc/fault). When any NoC fault rate is
  /// positive the NICs arm a CRC + ack/retransmit layer; with no plan (or
  /// all rates zero) every hook is a dead null-test and behaviour is
  /// byte-identical to a fault-free fabric.
  fault::Plan* fault = nullptr;
};

/// One reassembled frame, ready at a destination NIC.
struct Delivery {
  std::uint32_t opcode = 0;
  std::vector<std::uint8_t> payload;
  int src_tile = 0;
  std::uint64_t send_cycle = 0;    ///< cycle the frame entered the source NIC
  std::uint64_t arrive_cycle = 0;  ///< cycle the tail flit reached the NIC
  std::uint64_t due_cycle = 0;     ///< max(arrive, send + extra delay)
};

/// One directed router-to-router link, for utilization reporting.
struct LinkStats {
  int from_tile = 0;
  Port dir = kEast;
  std::uint64_t flits = 0;  ///< flits that traversed this link
};

/// Power-of-two-bucketed end-to-end frame latency (send_frame to tail
/// arrival, in cycles).
struct LatencyHistogram {
  static constexpr int kBuckets = 24;
  std::array<std::uint64_t, kBuckets> buckets{};  ///< [2^i, 2^(i+1))
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void add(std::uint64_t latency);
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(count);
  }
};

/// Snapshot of every fabric counter, assembled by Fabric::stats().
struct FabricStats {
  int width = 0, height = 0;
  TopologyKind topology = TopologyKind::kMesh;
  RoutePolicy routing = RoutePolicy::kXY;
  std::uint64_t cycles = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<RouterStats> routers;  ///< indexed by tile (row-major)
  std::vector<LinkStats> links;
  LatencyHistogram latency;

  double link_utilization(const LinkStats& l) const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(l.flits) / static_cast<double>(cycles);
  }
  /// Fixed-width table for terminals (xtsocc --obs=noc).
  std::string to_table() const;
};

/// What the fault injector did to the fabric and how the resilient NICs
/// answered. All-zero unless a fault::Plan with a positive NoC rate is
/// attached; reported in the snapshot's "faults" section, never in the
/// fault-free FabricStats document.
struct FabricFaultStats {
  std::uint64_t flits_dropped = 0;     ///< injected in-transit drops
  std::uint64_t flits_corrupted = 0;   ///< injected payload bit flips
  std::uint64_t link_down_events = 0;  ///< outages the plan opened
  std::uint64_t link_down_drops = 0;   ///< flits that died on a downed link
  std::uint64_t crc_rejects = 0;       ///< frames discarded at reassembly
  std::uint64_t orphan_flits = 0;      ///< flits of a purged/unopened frame
  std::uint64_t retransmissions = 0;   ///< retry attempts the NICs issued
  std::uint64_t duplicates_dropped = 0;///< late retries deduplicated at dst
  std::uint64_t acks_delivered = 0;    ///< sideband acks back at the source
  std::uint64_t frames_lost = 0;       ///< retry budget exhausted (reported, not hung)
  std::uint64_t tainted_delivered = 0; ///< corrupted frames the CRC missed (must stay 0)
};

class Fabric {
public:
  explicit Fabric(FabricConfig config);
  // Routers keep pointers into the fabric (its topology and flit pool).
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int width() const { return config_.width; }
  int height() const { return config_.height; }
  int tiles() const { return config_.width * config_.height; }
  int tile_index(int x, int y) const { return y * config_.width + x; }

  /// Segment `payload` into flits and queue them at tile `src`'s NIC.
  /// The frame becomes deliverable at `dst` once its tail flit arrives,
  /// but never before `current_cycle + extra_delay` (generate-statement
  /// delays ride along, exactly as on the point-to-point Bus).
  void send_frame(int src, int dst, std::uint32_t opcode,
                  std::vector<std::uint8_t> payload,
                  std::uint64_t current_cycle, std::uint64_t extra_delay = 0);

  /// Advance the whole network by one cycle (cycle number `cycle`).
  void tick(std::uint64_t cycle);

  /// Move every completed frame at `tile` due at or before `cycle` onto
  /// the end of `out`, in arrival order. The caller owns `out` and can
  /// reuse it, so a steady stream of deliveries allocates nothing here.
  void pop_due(int tile, std::uint64_t cycle, std::vector<Delivery>& out);

  /// Tiles where a frame completed since the last clear_ready_tiles(), each
  /// listed once, in completion order. A consumer that pops these NICs
  /// polls only the tiles that have deliveries instead of every tile.
  const std::vector<int>& ready_tiles() const { return ready_tiles_; }
  void clear_ready_tiles();

  /// True when nothing is buffered, in flight, or awaiting delivery.
  bool idle() const;

  const Router& router(int tile) const { return routers_.at(tile); }
  const Topology& topology() const { return *topo_; }
  FabricStats stats() const;
  const FabricFaultStats& fault_stats() const { return fstats_; }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the complete dynamic network state: router buffers/credits/
  /// arbitration, NIC injection queues, reassemblies, retry schedules and
  /// dedup sets, link-borne flits, sideband acks, outage timers, and every
  /// counter. The topology (dimensions, latencies, depths) is
  /// construction-owned; load_state refuses a different shape.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct Reassembly {
    std::uint32_t opcode = 0;
    std::uint32_t frame_bytes = 0;
    std::uint32_t frame_id = 0;
    std::uint32_t crc = 0;
    bool tainted = false;
    std::vector<std::uint8_t> payload;
  };

  /// One logical frame the resilient source NIC still owes an ack for.
  /// Keyed by frame_id; re-sent (new seq, flipped route mode) when the
  /// deadline passes, reported lost when the retry budget runs out.
  struct PendingTx {
    int dst = 0;
    std::uint32_t frame_id = 0;
    std::uint32_t opcode = 0;
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t send_cycle = 0;  ///< original send (latency is end-to-end)
    std::uint64_t min_due = 0;
    std::uint64_t deadline = 0;
    int attempts = 1;
  };

  /// NIC egress: the segmented flits awaiting injection, in order. A
  /// vector and a head index: a pop moves the head, the storage is reused
  /// once the queue drains, and the popped prefix is compacted away when
  /// it is the larger half, so a NIC that never drains stays bounded.
  struct Egress {
    std::vector<Flit> flits;
    std::size_t head = 0;

    bool empty() const { return head == flits.size(); }
    std::size_t size() const { return flits.size() - head; }
    Flit& front() { return flits[head]; }
    const Flit& at(std::size_t i) const { return flits[head + i]; }
    void push(Flit f) { flits.push_back(std::move(f)); }
    void pop() {
      if (++head == flits.size()) {
        flits.clear();
        head = 0;
      } else if (head >= 32 && 2 * head >= flits.size()) {
        flits.erase(flits.begin(),
                    flits.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
    void clear() {
      flits.clear();
      head = 0;
    }
  };

  struct Nic {
    Egress tx;              ///< segmented flits awaiting injection
    int inject_credits = 0; ///< free slots in the router's local input FIFO
    /// In-progress reassemblies, keyed by (source tile, attempt seq).
    std::map<std::pair<int, std::uint32_t>, Reassembly> partial;
    std::vector<Delivery> ready;  ///< completed frames awaiting pop_due
    bool listed = false;          ///< in ready_tiles_
    std::uint32_t next_seq = 0;
    // --- resilient-transport state (used only when fault_armed_) ---------
    std::map<std::uint32_t, PendingTx> pending;  ///< frame_id -> unacked frame
    /// Deadline-ordered retry schedule over `pending`, lazily invalidated:
    /// an entry whose frame was acked (or rescheduled to a later deadline)
    /// no longer matches and is discarded when popped. Without this index
    /// the per-cycle deadline check would walk every in-flight frame — on
    /// an oversubscribed mesh that backlog grows without bound, turning a
    /// linear run quadratic.
    std::multimap<std::uint64_t, std::uint32_t> retry_at;
    std::set<std::pair<int, std::uint32_t>> delivered;  ///< dedup (src, frame_id)
    std::uint32_t next_frame_id = 0;
  };

  /// A sideband acknowledgement riding back to the source NIC. Modeled as
  /// reliable (a real design would piggyback it on a protected VC); it
  /// still takes hop-distance time, so retransmission timing is honest.
  struct Ack {
    std::uint64_t due = 0;
    int to_tile = 0;
    std::uint32_t frame_id = 0;
  };

  /// A freed input-FIFO slot whose credit returns at the end of the tick.
  struct CreditReturn {
    int router;
    Port input;  ///< the input FIFO a flit left
  };

  /// A flit in flight on a link, due to enter `router`'s `port` FIFO.
  struct Arrival {
    std::uint64_t cycle = 0;
    int router = 0;
    Port port = kLocal;
    FlitRef flit;
  };

  /// The topology's neighbors(): -1 where no link exists.
  int neighbor_of(int tile, Port dir) const {
    return topo_->neighbors(tile, dir);
  }
  void eject(int tile, Flit flit, std::uint64_t cycle);
  void check_tile(int tile, const char* what) const;

  // --- fault machinery (no-ops unless a plan with NoC rates is attached) ---
  /// Segment one transmission attempt of a frame into link flits. With
  /// `keep_payload` false (a fault-free send: no retransmission will need
  /// it) a single-flit frame hands its payload to the flit, uncopied.
  void enqueue_attempt(int src, int dst, PendingTx& tx, RouteMode route_mode,
                       bool keep_payload);
  /// A completed reassembly: CRC check, dedup, ack, then delivery.
  void complete_frame(int tile, int src_tile, std::uint32_t frame_id,
                      std::uint32_t crc, bool tainted, std::uint32_t opcode,
                      std::vector<std::uint8_t> payload,
                      std::uint64_t send_cycle, std::uint64_t min_due,
                      std::uint64_t cycle);
  /// Acks, retry deadlines, and link-outage draws for this cycle.
  void fault_cycle(std::uint64_t cycle);
  /// The topology's min_hops() (both dimension orders tie).
  int hop_distance(int a, int b) const { return topo_->min_hops(a, b); }
  /// Retry deadline: generous round-trip bound including the current
  /// injection backlog, doubled per attempt — tight enough to recover,
  /// loose enough that an undisturbed frame never retries spuriously.
  std::uint64_t retry_deadline(std::uint64_t cycle, int hops,
                               std::size_t nflits, std::size_t backlog,
                               int attempts) const;

  FabricConfig config_;
  std::unique_ptr<Topology> topo_;
  /// Every flit inside the network; router FIFOs and links hold handles.
  FlitPool pool_;
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  /// Flits on the links, in send order (= due order: every link has the
  /// same latency). A link carries at most one flit per cycle for
  /// link_latency cycles, which bounds the ring at links * link_latency.
  FixedRing<Arrival> in_flight_;
  /// Directed links, plus (tile, dir) -> index into links_.
  std::vector<LinkStats> links_;
  std::vector<int> link_index_;  ///< [tile * kPortCount + dir], -1 if edge
  std::vector<CreditReturn> credit_returns_;  ///< tick() scratch, reused
  /// Routers holding flits and NICs holding flits to inject: tick() visits
  /// these, in tile order, instead of every tile (derived state: load_state
  /// rebuilds both).
  IndexSet busy_routers_;
  IndexSet sending_nics_;
  /// Tiles that completed a frame since clear_ready_tiles() (derived state:
  /// load_state lists every tile holding deliveries).
  std::vector<int> ready_tiles_;

  // Fault state. fault_armed_ is the one test the hot path pays when no
  // NoC fault rate is configured.
  fault::Plan* fault_ = nullptr;
  bool fault_armed_ = false;       ///< any of the three NoC rates positive
  std::vector<Ack> acks_;          ///< sideband acks in flight
  std::vector<std::uint64_t> link_down_until_;  ///< per link: down before this cycle
  FabricFaultStats fstats_;

  std::uint64_t cycles_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t flits_injected_ = 0;
  std::uint64_t payload_bytes_ = 0;
  LatencyHistogram latency_;

  // Observability (null members when no registry is attached).
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;
  std::size_t last_in_flight_ = 0;  ///< last sampled in-flight flit count
};

}  // namespace xtsoc::noc
