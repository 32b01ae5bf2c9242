#include "xtsoc/noc/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xtsoc::noc {

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kRing: return "ring";
  }
  return "?";
}

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kXY: return "xy";
    case RoutePolicy::kYX: return "yx";
    case RoutePolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(RouteMode m) {
  switch (m) {
    case RouteMode::kPrimary: return "primary";
    case RouteMode::kFallback: return "fallback";
  }
  return "?";
}

std::optional<TopologyKind> topology_from_string(std::string_view s) {
  if (s == "mesh") return TopologyKind::kMesh;
  if (s == "torus") return TopologyKind::kTorus;
  if (s == "ring") return TopologyKind::kRing;
  return std::nullopt;
}

std::optional<RoutePolicy> routing_from_string(std::string_view s) {
  if (s == "xy") return RoutePolicy::kXY;
  if (s == "yx") return RoutePolicy::kYX;
  if (s == "adaptive") return RoutePolicy::kAdaptive;
  return std::nullopt;
}

namespace {

/// Distance forward (toward kEast / kSouth) from `from` to `to` in a
/// wrapped dimension of size `n`. The minimal direction is forward when
/// fwd*2 <= n (ties wrap forward, keeping the decision deterministic).
int wrap_fwd(int from, int to, int n) { return (to - from + n) % n; }

/// Fill one dimension's step and distance tables, [from * n + to]. An
/// unwrapped dimension steps toward the target (`up` when it lies at a
/// larger coordinate, `down` otherwise); a wrapped one takes the shorter
/// way round, ties forward (`up`).
void fill_dimension(int n, bool wrapped, Port up, Port down,
                    std::vector<std::uint8_t>& step,
                    std::vector<std::uint8_t>& dist) {
  step.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
              kLocal);
  dist.assign(step.size(), 0);
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const std::size_t at = static_cast<std::size_t>(from * n + to);
      if (from == to) continue;
      if (wrapped) {
        const int fwd = wrap_fwd(from, to, n);
        step[at] = 2 * fwd <= n ? up : down;
        dist[at] = static_cast<std::uint8_t>(std::min(fwd, n - fwd));
      } else {
        step[at] = to > from ? up : down;
        dist[at] = static_cast<std::uint8_t>(to > from ? to - from : from - to);
      }
    }
  }
}

}  // namespace

Topology::Topology(TopologyKind kind, int width, int height)
    : kind_(kind), width_(width), height_(height) {
  if (kind == TopologyKind::kTorus && (width < 2 || height < 2)) {
    throw std::invalid_argument("torus needs both dimensions >= 2 (got " +
                                std::to_string(width) + "x" +
                                std::to_string(height) + ")");
  }
  if (kind == TopologyKind::kRing && height != 1) {
    throw std::invalid_argument("ring topology is one row (got height " +
                                std::to_string(height) + ")");
  }
  if (width < 1 || height < 1 || width > 256 || height > 256) {
    throw std::invalid_argument("topology dimensions " + std::to_string(width) +
                                "x" + std::to_string(height) +
                                " outside [1, 256]");
  }
  const bool wrapped = kind != TopologyKind::kMesh;
  fill_dimension(width, wrapped, kEast, kWest, x_step_, x_dist_);
  fill_dimension(height, wrapped, kSouth, kNorth, y_step_, y_dist_);

  const int n = tiles();
  tile_x_.resize(static_cast<std::size_t>(n));
  tile_y_.resize(static_cast<std::size_t>(n));
  neighbor_.assign(static_cast<std::size_t>(n) * kPortCount, -1);
  for (int t = 0; t < n; ++t) {
    const int x = t % width, y = t / width;
    tile_x_[static_cast<std::size_t>(t)] = static_cast<std::uint8_t>(x);
    tile_y_[static_cast<std::size_t>(t)] = static_cast<std::uint8_t>(y);
    int* out = &neighbor_[static_cast<std::size_t>(t) * kPortCount];
    // A wrapped dimension of size 1 would link a tile to itself: no link.
    // The ring is one wrapped row, so it has no vertical links at all.
    if (wrapped) {
      if (width > 1) {
        out[kEast] = index((x + 1) % width, y);
        out[kWest] = index((x - 1 + width) % width, y);
      }
      if (height > 1) {
        out[kSouth] = index(x, (y + 1) % height);
        out[kNorth] = index(x, (y - 1 + height) % height);
      }
    } else {
      if (x + 1 < width) out[kEast] = index(x + 1, y);
      if (x > 0) out[kWest] = index(x - 1, y);
      if (y + 1 < height) out[kSouth] = index(x, y + 1);
      if (y > 0) out[kNorth] = index(x, y - 1);
    }
    for (int p = kNorth; p < kPortCount; ++p) links_ += out[p] >= 0 ? 1 : 0;
  }
}

}  // namespace xtsoc::noc
