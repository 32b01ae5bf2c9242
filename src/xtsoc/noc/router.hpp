// One router: five ports (local + the four compass directions), a per-port
// input FIFO, dimension-ordered routing delegated to the fabric's Topology,
// and credit-based flow control toward each neighbour.
//
// Each input FIFO is a fixed ring of `fifo_depth` slots. Credits are what
// bound it: an upstream router forwards only while it holds a credit for
// this port, and the NIC injects only while it holds one of its
// `fifo_depth` inject credits, so no FIFO ever holds more than its depth
// and the ring never grows or allocates.
//
// The cycle contract (driven by Fabric::tick):
//   * each output port forwards at most one flit per cycle (the link is
//     one flit wide);
//   * an input FIFO holds at most `fifo_depth` flits — the matching credit
//     counter lives in the upstream router, so a full buffer stalls the
//     sender instead of dropping flits;
//   * arbitration between input ports competing for one output is
//     round-robin, which keeps the network deterministic AND starvation-free.
//     Under XY and YX the router keeps, per output, the bit mask of the
//     inputs whose head flit routes there (accept and take update it), so
//     the requested outputs are the non-zero masks and a round-robin pick
//     is one rotate and a count of trailing zeros;
//   * routing is dimension-ordered (correct one coordinate, then the other,
//     then eject), so flits of one (source, destination) pair never reorder
//     — the property frame reassembly relies on. Under XY and YX (and a
//     retransmission's fallback order) the output port depends only on the
//     flit's destination and route mode, so it is computed once, when the
//     flit enters the FIFO, and arbitration reads it back. Under the
//     adaptive policy the router picks which dimension to correct first,
//     comparing its own credit counters toward the two productive ports
//     (ties take the XY port). The decision is made once, on the frame's
//     head flit, and pinned until the tail passes (wormhole-style): body
//     flits that chose their own dimension could overtake the head on the
//     other path and reach the destination before reassembly opened. The fabric advances
//     routers in tile order every configuration, so the credit comparison
//     is as deterministic as the XY default.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "xtsoc/noc/flit.hpp"
#include "xtsoc/noc/ring.hpp"

namespace xtsoc::noc {

class Topology;

/// Port indices. kLocal is the NIC side; the rest are fabric links.
enum Port : int { kLocal = 0, kNorth, kEast, kSouth, kWest, kPortCount };

const char* to_string(Port p);

/// The port on the neighbouring router that a flit sent out of `p` arrives
/// on (east link feeds the neighbour's west port, and so on).
inline Port opposite(Port p) {
  switch (p) {
    case kNorth: return kSouth;
    case kSouth: return kNorth;
    case kEast: return kWest;
    case kWest: return kEast;
    default: return kLocal;
  }
}

struct RouterStats {
  std::uint64_t flits_routed = 0;     ///< flits forwarded through this router
  std::uint64_t flits_ejected = 0;    ///< flits delivered to the local NIC
  std::uint64_t credit_stalls = 0;    ///< arbitration wins lost to empty credit
  std::size_t buffer_high_water = 0;  ///< max flits buffered at once (all ports)
};

/// A flit in an input FIFO with the output port its route query answered
/// when it arrived (unused under the adaptive policy, which decides at
/// arbitration time).
struct BufferedFlit {
  FlitRef flit;
  Port route = kLocal;
};

/// One input FIFO: a ring of `fifo_depth` slots.
using FlitFifo = FixedRing<BufferedFlit>;

/// Refuse a restored flit whose source or destination lies outside `topo`:
/// the fabric indexes its NICs by them. Throws snap::SnapError.
void check_restored_flit(const Flit& f, const Topology& topo);

class Router {
public:
  /// `pool` holds the flits the FIFOs refer to; like `topo` it is owned by
  /// the fabric and outlives the router.
  Router(int x, int y, int fifo_depth, const Topology* topo, int tile,
         RoutePolicy policy, FlitPool* pool)
      : x_(x), y_(y), depth_(fifo_depth), topo_(topo), tile_(tile),
        policy_(policy), pool_(pool) {
    in_.fill(FlitFifo(static_cast<std::size_t>(fifo_depth)));
    credits_.fill(0);
    rr_.fill(0);
    wants_.fill(0);
  }

  int x() const { return x_; }
  int y() const { return y_; }
  int fifo_depth() const { return depth_; }

  /// Route decision for a flit seen at this router, under the fabric's
  /// topology and routing policy (honouring the flit's route mode). Under
  /// the adaptive policy this memoizes per open frame (see frame_forwarded).
  Port route(const Flit& f) const;

  /// Fabric calls this as it forwards `f` out of this router, so the
  /// adaptive policy can retire its pinned route when the tail passes.
  void frame_forwarded(const FlitRef& f) {
    if (policy_ == RoutePolicy::kAdaptive &&
        (*pool_)[f].kind == FlitKind::kTail) {
      adaptive_port_.erase(frame_key((*pool_)[f]));
    }
  }

  // --- buffers (Fabric moves flits between routers) ---------------------------
  /// Buffer the pooled flit `f` at input `p`. Under dimension order its
  /// output port is routed here, once, from the handle's header. Throws
  /// FabricError when the FIFO is full: credits make that impossible, so it
  /// means the credit books are corrupt.
  void accept(Port p, const FlitRef& f);
  /// Remove and return the head flit of input `p` (it stays in the pool).
  FlitRef take(Port p) {
    FlitFifo& q = in_[p];
    wants_[q.front().route] &= static_cast<std::uint8_t>(~(1u << p));
    const FlitRef f = q.front().flit;
    q.pop();
    if (!q.empty()) {
      wants_[q.front().route] |= static_cast<std::uint8_t>(1u << p);
    }
    --buffered_;
    return f;
  }
  bool buffers_empty() const { return buffered_ == 0; }
  std::size_t buffered() const { return buffered_; }
  /// Output ports requested by the input heads at the start of a visit, as
  /// a bit mask: the ports arbitrate() can find a winner for. Under the
  /// adaptive policy every port, since its decision waits for the query.
  unsigned requested_outputs() const {
    if (policy_ == RoutePolicy::kAdaptive) return (1u << kPortCount) - 1;
    unsigned mask = 0;
    for (int out = 0; out < kPortCount; ++out) {
      mask |= static_cast<unsigned>(wants_[out] != 0) << out;
    }
    return mask;
  }

  // --- credits toward each downstream neighbour --------------------------------
  int credits(Port p) const { return credits_[p]; }
  void set_credits(Port p, int n) { credits_[p] = n; }
  void take_credit(Port p) { --credits_[p]; }
  void return_credit(Port p) { ++credits_[p]; }

  // --- round-robin arbitration state -------------------------------------------
  /// Pick the next input port requesting `out`, starting after the last
  /// winner. Ports whose bit is set in `served_mask` already forwarded a
  /// flit this cycle (one flit per input per cycle) and are skipped.
  /// Returns -1 if no eligible input's head flit routes to `out`.
  int arbitrate(Port out, unsigned served_mask = 0) const {
    if (policy_ == RoutePolicy::kAdaptive) {
      return arbitrate_adaptive(out, served_mask);
    }
    // The eligible requesters, rotated so bit 0 is input rr_[out]: the
    // lowest set bit is the first one round-robin order reaches.
    const unsigned m = wants_[out] & ~served_mask & ((1u << kPortCount) - 1);
    if (m == 0) return -1;
    const int rr = rr_[out];
    const unsigned rotated =
        ((m >> rr) | (m << (kPortCount - rr))) & ((1u << kPortCount) - 1);
    const int p = rr + std::countr_zero(rotated);
    return p >= kPortCount ? p - kPortCount : p;
  }
  void advance_rr(Port out, int winner) {
    rr_[out] = (winner + 1) % kPortCount;
  }

  RouterStats& stats() { return stats_; }
  const RouterStats& stats() const { return stats_; }
  void note_occupancy();

  // --- checkpointing ---------------------------------------------------------
  /// Serialize buffered flits, credit counters, round-robin pointers and
  /// stats. Position and depth are construction-owned. load_state refuses
  /// a FIFO holding more flits than the depth and a credit counter outside
  /// [0, depth]: the fixed rings rely on the credit invariant.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  /// Frame identity for the adaptive route pin: source tile + per-source
  /// sequence number (the same key reassembly uses).
  static std::uint64_t frame_key(const Flit& f) {
    return (static_cast<std::uint64_t>(f.src_x) << 48) |
           (static_cast<std::uint64_t>(f.src_y) << 40) |
           static_cast<std::uint64_t>(f.seq);
  }

  /// The next hop toward (dst_x, dst_y) in the policy's dimension order
  /// (flipped for a fallback-mode attempt).
  Port dimension_order(int dst_x, int dst_y, RouteMode mode) const;
  /// The adaptive policy's arbitration: each head's route query is made
  /// in round-robin order, the order its outcome depends on.
  int arbitrate_adaptive(Port out, unsigned served_mask) const;

  int x_, y_;
  int depth_;
  const Topology* topo_;  ///< owned by the Fabric, outlives every router
  int tile_;
  RoutePolicy policy_;
  FlitPool* pool_;  ///< owned by the Fabric, outlives every router
  std::array<FlitFifo, kPortCount> in_;
  std::size_t buffered_ = 0;  ///< flits in all input FIFOs
  std::array<int, kPortCount> credits_;  ///< free slots downstream of each output
  std::array<int, kPortCount> rr_;       ///< next input to consider per output
  /// Per output: the inputs whose head flit routes there, one bit each
  /// (dimension order only; derived from the FIFOs, so never saved).
  std::array<std::uint8_t, kPortCount> wants_;
  /// Adaptive policy only: output port pinned for each frame whose head
  /// this router has routed but whose tail has not yet passed. Mutable
  /// because the pin is established inside the (speculative, repeated)
  /// route() queries arbitration makes.
  mutable std::unordered_map<std::uint64_t, Port> adaptive_port_;
  RouterStats stats_;
};

}  // namespace xtsoc::noc
