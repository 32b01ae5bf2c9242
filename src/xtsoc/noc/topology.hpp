// Topology: the exchangeable shape of the on-chip network.
//
// The paper's claim is that the platform is a modeling decision you change
// by moving marks, not by rewriting the model. The fabric honours that by
// asking a Topology three questions it used to hard-code for a 2D mesh:
// which links exist (neighbors), which output port a flit takes next
// (route), and how far apart two tiles are (min_hops, which times acks and
// retry deadlines). Mesh, torus and ring answer them differently; Fabric,
// Router, the fault-reroute path and the checkpoint format are shape-blind.
//
// The shapes differ only in the tables the constructor fills: a per-
// dimension step table (which way to go from coordinate x toward dx, and
// likewise for y), a per-dimension distance table, and a [tile][port]
// neighbour table. Every question is then one or two lookups, with no
// virtual call and no division on the fabric's hot path. The tables grow
// with the side of the grid and with the tile count, never with the square
// of the tile count.
//
// Routing stays dimension-ordered everywhere: correct one coordinate, then
// the other, then eject. That keeps flits of one (source, destination) pair
// in order — the property frame reassembly relies on — and makes the
// fallback mode (flip the dimension order) meaningful on every shape. On
// wrapped shapes each dimension additionally picks its direction by minimal
// distance, ties broken toward kEast/kSouth so routing stays deterministic.
//
// Deadlock note: dimension order is provably deadlock-free on the
// edge-clipped mesh. Wraparound links reintroduce cyclic channel
// dependencies (real designs break them with virtual channels, which this
// model does not have). The resilient transport's bounded retry deadlines
// turn such a deadlock into reported loss only when a NoC fault rate is
// positive, which is what arms them. A fault-free torus under heavy load
// can deadlock for good: the fabric never drains and a co-simulation runs
// to max_cycles. Keep offered load on wrapped shapes below the collapse
// point (see docs/NOC.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "xtsoc/noc/router.hpp"

namespace xtsoc::noc {

/// Parse a `topology` mark value ("mesh", "torus", "ring").
std::optional<TopologyKind> topology_from_string(std::string_view s);
/// Parse a `routing` mark value ("xy", "yx", "adaptive").
std::optional<RoutePolicy> routing_from_string(std::string_view s);

class Topology {
public:
  /// Build the named shape's tables. Throws std::invalid_argument for
  /// shapes that cannot exist (torus with a dimension under 2, ring taller
  /// than one row); Fabric and marks::validate reject those earlier with
  /// friendlier errors.
  Topology(TopologyKind kind, int width, int height);

  TopologyKind kind() const { return kind_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int tiles() const { return width_ * height_; }
  int index(int x, int y) const { return y * width_ + x; }
  int x_of(int tile) const { return tile_x_[static_cast<std::size_t>(tile)]; }
  int y_of(int tile) const { return tile_y_[static_cast<std::size_t>(tile)]; }

  /// The tile one hop out of `tile` through `dir`, or -1 when no link
  /// exists there (mesh edge, the local port, or a wrap that would loop a
  /// size-1 dimension back onto itself — the fabric never builds
  /// self-links).
  int neighbors(int tile, Port dir) const {
    return neighbor_[static_cast<std::size_t>(tile) * kPortCount + dir];
  }

  /// The port that corrects the X coordinate one hop from `x` toward `dx`
  /// (kEast, kWest, or kLocal when they are equal), and likewise for Y
  /// (kSouth, kNorth, kLocal).
  Port x_step(int x, int dx) const {
    return static_cast<Port>(
        x_step_[static_cast<std::size_t>(x) * width_ + dx]);
  }
  Port y_step(int y, int dy) const {
    return static_cast<Port>(
        y_step_[static_cast<std::size_t>(y) * height_ + dy]);
  }

  /// Dimension-order route decision for a flit at (x, y) bound for
  /// (dx, dy): the output port of its next hop, kLocal on arrival.
  Port route_at(int x, int y, int dx, int dy, bool x_first) const {
    const Port xs = x_step(x, dx);
    const Port ys = y_step(y, dy);
    if (x_first) return xs != kLocal ? xs : ys;
    return ys != kLocal ? ys : xs;
  }

  /// Whether the effective dimension order corrects X before Y. kFallback
  /// flips the order of `policy`; kAdaptive is resolved by the Router (the
  /// choice needs live credit state), so here it is kXY, its
  /// deterministic core.
  static bool x_first(RoutePolicy policy, RouteMode mode) {
    const bool xf = policy != RoutePolicy::kYX;
    return mode == RouteMode::kFallback ? !xf : xf;
  }

  /// Dimension-order route decision for a flit sitting at `src` bound for
  /// `dst`: the output port of its next hop, kLocal when src == dst. On a
  /// ring the policy and mode make no difference: one dimension, one path.
  Port route(RoutePolicy policy, int src, int dst, RouteMode mode) const {
    return route_at(x_of(src), y_of(src), x_of(dst), y_of(dst),
                    x_first(policy, mode));
  }

  /// Hops on a minimal path between two tiles (both dimension orders tie).
  /// Times sideband acks and retransmission deadlines.
  int min_hops(int a, int b) const {
    return x_dist_[static_cast<std::size_t>(x_of(a)) * width_ + x_of(b)] +
           y_dist_[static_cast<std::size_t>(y_of(a)) * height_ + y_of(b)];
  }

  /// Number of directed router-to-router links this shape wires up.
  int link_count() const { return links_; }

private:
  TopologyKind kind_;
  int width_;
  int height_;
  int links_ = 0;
  std::vector<std::uint8_t> tile_x_, tile_y_;  ///< [tile]
  std::vector<std::uint8_t> x_step_;  ///< [x * width + dx]: a Port
  std::vector<std::uint8_t> y_step_;  ///< [y * height + dy]: a Port
  std::vector<std::uint8_t> x_dist_;  ///< [x * width + dx]: hops
  std::vector<std::uint8_t> y_dist_;  ///< [y * height + dy]: hops
  std::vector<int> neighbor_;         ///< [tile * kPortCount + port]
};

}  // namespace xtsoc::noc
