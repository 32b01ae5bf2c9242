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

#include <memory>
#include <optional>
#include <string_view>

#include "xtsoc/noc/router.hpp"

namespace xtsoc::noc {

/// Parse a `topology` mark value ("mesh", "torus", "ring").
std::optional<TopologyKind> topology_from_string(std::string_view s);
/// Parse a `routing` mark value ("xy", "yx", "adaptive").
std::optional<RoutePolicy> routing_from_string(std::string_view s);

class Topology {
public:
  Topology(TopologyKind kind, int width, int height)
      : kind_(kind), width_(width), height_(height) {}
  virtual ~Topology() = default;

  TopologyKind kind() const { return kind_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int tiles() const { return width_ * height_; }
  int index(int x, int y) const { return y * width_ + x; }

  /// The tile one hop out of `tile` through `dir`, or -1 when no link
  /// exists there (mesh edge, or a wrap that would loop a size-1 dimension
  /// back onto itself — the fabric never builds self-links).
  virtual int neighbors(int tile, Port dir) const = 0;

  /// Dimension-order route decision for a flit sitting at `src` bound for
  /// `dst`: the output port of its next hop, kLocal when src == dst.
  /// kFallback flips the dimension order of `policy`. kAdaptive is resolved
  /// by the Router (the choice needs live credit state); a Topology treats
  /// it as kXY, its deterministic core.
  virtual Port route(RoutePolicy policy, int src, int dst,
                     RouteMode mode) const = 0;

  /// Hops on a minimal path between two tiles (both dimension orders tie).
  /// Times sideband acks and retransmission deadlines.
  virtual int min_hops(int a, int b) const = 0;

  /// Number of directed router-to-router links this shape wires up.
  virtual int link_count() const = 0;

protected:
  int x_of(int tile) const { return tile % width_; }
  int y_of(int tile) const { return tile / width_; }

private:
  TopologyKind kind_;
  int width_;
  int height_;
};

/// Construct the named shape. Throws std::invalid_argument for shapes that
/// cannot exist (torus with a dimension under 2, ring taller than one row);
/// Fabric and marks::validate reject those earlier with friendlier errors.
std::unique_ptr<Topology> make_topology(TopologyKind kind, int width,
                                        int height);

}  // namespace xtsoc::noc
