#include "xtsoc/noc/router.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/noc/topology.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::noc {

const char* to_string(FlitKind k) {
  switch (k) {
    case FlitKind::kHead: return "head";
    case FlitKind::kBody: return "body";
    case FlitKind::kTail: return "tail";
    case FlitKind::kHeadTail: return "head+tail";
  }
  return "?";
}

const char* to_string(Port p) {
  switch (p) {
    case kLocal: return "local";
    case kNorth: return "north";
    case kEast: return "east";
    case kSouth: return "south";
    case kWest: return "west";
    default: return "?";
  }
}

Port Router::dimension_order(int dst_x, int dst_y, RouteMode mode) const {
  return topo_->route_at(x_, y_, dst_x, dst_y,
                         Topology::x_first(policy_, mode));
}

Port Router::route(const Flit& f) const {
  if (policy_ == RoutePolicy::kAdaptive) {
    // Minimal-adaptive: both dimension orders lead to minimal paths, so
    // take each order's next port and pick the one with more credit
    // downstream — the frame sidesteps the backpressured dimension.
    // Ties go to the XY port, so an uncongested adaptive fabric routes
    // exactly like an XY one. The choice is made on the head flit and
    // pinned until the tail passes (frame_forwarded), keeping every flit of
    // a frame on one path — reassembly's in-order requirement.
    const Port px = topo_->route_at(x_, y_, f.dst_x, f.dst_y, true);
    if (px == kLocal) return kLocal;
    if (f.kind == FlitKind::kBody || f.kind == FlitKind::kTail) {
      auto it = adaptive_port_.find(frame_key(f));
      if (it != adaptive_port_.end()) return it->second;
      // No pin: the head ejected here or was a single-flit attempt that
      // left no state — fall through and decide like a head would.
    }
    const Port py = topo_->route_at(x_, y_, f.dst_x, f.dst_y, false);
    Port chosen = px;
    if (py != px) chosen = credits_[py] > credits_[px] ? py : px;
    // Pin multi-flit frames so the body/tail follow; repeated speculative
    // route() queries within one arbitration pass also hit the pin, so the
    // head cannot flip ports as credits drain mid-cycle.
    if (f.kind == FlitKind::kHead || f.kind == FlitKind::kBody ||
        f.kind == FlitKind::kTail) {
      auto [it, inserted] = adaptive_port_.try_emplace(frame_key(f), chosen);
      if (!inserted) chosen = it->second;
    }
    return chosen;
  }
  // Dimension order (X first under XY, Y first under YX; a fallback-mode
  // flit flips the order — the detour a retransmission takes so it does not
  // march straight back into the link that ate the previous attempt).
  // Deadlock-free on the edge-clipped mesh because the turn from the second
  // dimension back into the first never happens; see topology.hpp for the
  // wraparound caveat. Mixing primary and fallback traffic is where mesh
  // deadlock folklore lives; the resilient NIC's retry deadline bounds any
  // such episode — a stuck attempt is re-sent or reported lost, never
  // waited on forever.
  return dimension_order(f.dst_x, f.dst_y, f.route_mode);
}

void Router::accept(Port p, const FlitRef& f) {
  FlitFifo& q = in_[p];
  if (q.full()) {
    throw FabricError("input FIFO overflow at router (" + std::to_string(x_) +
                      "," + std::to_string(y_) + ") port " + to_string(p) +
                      ": a flit arrived without a credit");
  }
  const Port out = policy_ == RoutePolicy::kAdaptive
                       ? kLocal
                       : dimension_order(f.dst_x, f.dst_y, f.route_mode);
  // A flit entering an empty FIFO is its new head.
  if (q.empty()) wants_[out] |= static_cast<std::uint8_t>(1u << p);
  q.push(BufferedFlit{f, out});
  ++buffered_;
}

int Router::arbitrate_adaptive(Port out, unsigned served_mask) const {
  for (int i = 0; i < kPortCount; ++i) {
    int p = rr_[out] + i;
    if (p >= kPortCount) p -= kPortCount;
    if (served_mask & (1u << p)) continue;
    const FlitFifo& q = in_[p];
    if (q.empty()) continue;
    // The adaptive query may pin a route, so it is made here, in the
    // round-robin order the policy's outcome depends on.
    if (route((*pool_)[q.front().flit]) == out) return p;
  }
  return -1;
}

void Router::note_occupancy() {
  if (buffered_ > stats_.buffer_high_water) {
    stats_.buffer_high_water = buffered_;
  }
}

void check_restored_flit(const Flit& f, const Topology& topo) {
  const auto out = [&](int x, int y) {
    return x >= topo.width() || y >= topo.height();
  };
  if (out(f.src_x, f.src_y) || out(f.dst_x, f.dst_y)) {
    throw snap::SnapError(
        "fabric snapshot holds a flit from (" + std::to_string(f.src_x) +
        "," + std::to_string(f.src_y) + ") to (" + std::to_string(f.dst_x) +
        "," + std::to_string(f.dst_y) + "), outside the " +
        std::to_string(topo.width()) + "x" + std::to_string(topo.height()) +
        " network");
  }
}

template <class Io, class Self>
void Router::layout(Io& io, Self& self) {
  constexpr bool kLoading = Io::kLoading;
  const auto where = [&] {
    return "router (" + std::to_string(self.x_) + "," +
           std::to_string(self.y_) + ") snapshot holds ";
  };
  if constexpr (kLoading) {
    // accept() rebuilds the buffer count and the request masks.
    self.buffered_ = 0;
    self.wants_.fill(0);
  }
  for (int p = 0; p < kPortCount; ++p) {
    const auto port = static_cast<Port>(p);
    auto& q = self.in_[p];
    const std::size_t n = io.count(q.size(), kFlitBytes);
    if constexpr (kLoading) {
      if (n > static_cast<std::size_t>(self.depth_)) {
        throw snap::SnapError(where() + std::to_string(n) +
                              " flits in its " + to_string(port) +
                              " FIFO, deeper than fifo_depth " +
                              std::to_string(self.depth_));
      }
      q.clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (kLoading) {
        Flit f;
        flit_layout(io, f);
        check_restored_flit(f, *self.topo_);
        self.accept(port, self.pool_->put(std::move(f)));
      } else {
        const FlitPool& pool = *self.pool_;
        flit_layout(io, pool[q.at(i).flit]);
      }
    }
  }
  for (int p = 0; p < kPortCount; ++p) {
    io.u32(self.credits_[p]);
    if constexpr (kLoading) {
      const auto port = static_cast<Port>(p);
      const auto c = static_cast<std::uint32_t>(self.credits_[p]);
      if (c > static_cast<std::uint32_t>(self.depth_)) {
        throw snap::SnapError(where() + std::to_string(c) + " credits toward " +
                              to_string(port) + ", outside [0, fifo_depth " +
                              std::to_string(self.depth_) + "]");
      }
      // Only a link takes credits: the ejection port and a mesh edge
      // never hold any.
      if (c > 0 &&
          (port == kLocal || self.topo_->neighbors(self.tile_, port) < 0)) {
        throw snap::SnapError(where() + std::to_string(c) + " credits toward " +
                              to_string(port) + ", which has no link");
      }
    }
  }
  for (int p = 0; p < kPortCount; ++p) {
    io.u32(self.rr_[p]);
    if constexpr (kLoading) {
      const auto rr = static_cast<std::uint32_t>(self.rr_[p]);
      if (rr >= static_cast<std::uint32_t>(kPortCount)) {
        throw snap::SnapError(where() + "round-robin pointer " +
                              std::to_string(rr) + " for " +
                              to_string(static_cast<Port>(p)) +
                              ", outside [0, " + std::to_string(kPortCount) +
                              ")");
      }
    }
  }
  // Adaptive route pins, key-sorted: the map's iteration order must not
  // leak into the checkpoint bytes.
  std::vector<std::pair<std::uint64_t, Port>> pins;
  if constexpr (!kLoading) {
    pins.assign(self.adaptive_port_.begin(), self.adaptive_port_.end());
    std::sort(pins.begin(), pins.end());
  }
  io.seq(pins, 8 + 1, [&](auto& pin) {
    io.u64(pin.first);
    io.u8(pin.second);
  });
  if constexpr (kLoading) {
    self.adaptive_port_.clear();
    for (const auto& [key, port] : pins) self.adaptive_port_[key] = port;
  }
  io.u64(self.stats_.flits_routed);
  io.u64(self.stats_.flits_ejected);
  io.u64(self.stats_.credit_stalls);
  io.u64(self.stats_.buffer_high_water);
}

void Router::save_state(snap::Writer& w) const { layout(w, *this); }

void Router::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::noc
