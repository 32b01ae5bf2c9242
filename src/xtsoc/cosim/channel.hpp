// Channel: one partition executor's window onto the interconnect.
//
// A domain (HwDomain, SwDomain) neither knows nor cares whether its frames
// travel the legacy point-to-point Bus or the 2D-mesh NoC — it sends
// toward a destination *class* and receives whatever is due. The concrete
// channel picked by CoSimulation encodes the topology:
//
//   * BusEndpoint — the degenerate 1x2 case: exactly one hardware and one
//     software endpoint, frames spend a fixed busLatency in flight;
//   * FabricChannel — a tile's NIC on the noc::Fabric: frames are
//     segmented into flits and routed hop by hop, so latency depends on
//     placement and congestion (which is the whole point).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "xtsoc/cosim/bus.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/mem/wire.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::cosim {

class Channel {
public:
  virtual ~Channel() = default;

  /// Queue `f` toward the executor owning class `dst`. The frame becomes
  /// deliverable after the interconnect's transit time, but never before
  /// `current_cycle + extra_delay` (generate-statement delays ride along).
  virtual void send(ClassId dst, Frame f, std::uint64_t current_cycle,
                    std::uint64_t extra_delay) = 0;

  /// Move every frame due at or before `cycle` onto the end of `out`, in
  /// order. The caller owns `out` (a domain passes its inbox).
  virtual void receive(std::uint64_t cycle, std::vector<Frame>& out) = 0;

  /// True when the channel buffers no undelivered frames of its own — the
  /// interconnect behind it may still hold traffic (the master checks Bus /
  /// Fabric separately).
  virtual bool idle() const = 0;

  // --- checkpointing ---------------------------------------------------------
  /// Serialize / restore channel-local buffering. The default no-op is the
  /// correct implementation for stateless endpoints (BusEndpoint: all its
  /// state lives in the Bus, serialized by the master).
  virtual void save_state(snap::Writer&) const {}
  virtual void load_state(snap::Reader&) {}
};

/// Frames a domain (HwDomain, SwDomain) staged for foreign executors while
/// it runs its window on a worker thread, where the shared channel must not
/// be touched. The master sends the prefix staged at cycles <= each phase-B
/// edge, in stage order.
class Outbox {
public:
  void stage(ClassId dst, Frame frame, std::uint64_t cycle,
             std::uint64_t extra_delay) {
    staged_.push_back({dst, std::move(frame), cycle, extra_delay});
  }

  bool empty() const { return staged_.empty(); }

  /// Send the unsent frames staged at cycles <= `cycle` (monotone calls).
  /// Clears the outbox once the last staged frame has been sent.
  void flush_through(Channel& channel, std::uint64_t cycle) {
    while (sent_ < staged_.size() && staged_[sent_].cycle <= cycle) {
      Staged& s = staged_[sent_];
      channel.send(s.dst, std::move(s.frame), s.cycle, s.extra_delay);
      ++sent_;
    }
    if (sent_ == staged_.size()) {
      staged_.clear();
      sent_ = 0;
    }
  }

  /// Append one (cycle, `tag`) entry per distinct cycle that still has
  /// unsent frames.
  void pending_send_cycles(
      std::uint32_t tag,
      std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) const;

  /// The staged frames and the sent mark. load_state refuses a count the
  /// snapshot cannot hold and a sent mark past the staged frames.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct Staged {
    ClassId dst;
    Frame frame;
    std::uint64_t cycle;        ///< cycle the signal left the executor
    std::uint64_t extra_delay;  ///< generate-statement delay riding along
  };

  std::vector<Staged> staged_;
  std::size_t sent_ = 0;  ///< flushed prefix
};

/// Legacy bus endpoint. The destination class is ignored: the bus has
/// exactly one far side.
class BusEndpoint final : public Channel {
public:
  enum class Side { kHardware, kSoftware };

  BusEndpoint(Bus& bus, Side side) : bus_(&bus), side_(side) {}

  void send(ClassId, Frame f, std::uint64_t current_cycle,
            std::uint64_t extra_delay) override {
    if (side_ == Side::kHardware) {
      bus_->push_to_sw(std::move(f), current_cycle, extra_delay);
    } else {
      bus_->push_to_hw(std::move(f), current_cycle, extra_delay);
    }
  }

  void receive(std::uint64_t cycle, std::vector<Frame>& out) override {
    if (side_ == Side::kHardware) {
      bus_->pop_due_to_hw(cycle, out);
    } else {
      bus_->pop_due_to_sw(cycle, out);
    }
  }

  bool idle() const override { return true; }  // all state lives in the Bus

private:
  Bus* bus_;
  Side side_;
};

/// A tile's NIC on the mesh fabric. Destination classes resolve to tiles
/// through the partition's mark-driven placement.
///
/// The master moves the NIC's reassembled frames into the channel
/// (drain_nic) for the tiles the fabric lists as ready, right after each
/// fabric tick, so no frame waits in a NIC between cycles. receive() and
/// take_coherence() then hand out what is due, so a channel with nothing
/// buffered costs nothing to skip.
///
/// Delivery timing: a reassembled frame leaves the NIC no earlier than
/// `arrive_cycle + link_latency` — one NIC-egress link traversal after the
/// tail flit lands. Besides modeling the egress port, this padding is what
/// gives the mesh a nonzero lookahead floor: a frame can never become
/// deliverable in the same sub-link_latency interval it arrived in, so a
/// conservative window of up to link_latency cycles sees a complete inbox
/// (see cosim.hpp). The rule is applied here uniformly — every window size,
/// every thread count — so all configurations agree byte for byte.
class FabricChannel final : public Channel {
public:
  FabricChannel(noc::Fabric& fabric, const mapping::MappedSystem& sys,
                int tile)
      : fabric_(&fabric), sys_(&sys), tile_(tile),
        egress_latency_(
            static_cast<std::uint64_t>(sys.partition().mesh().link_latency)) {}

  int tile() const { return tile_; }

  void send(ClassId dst, Frame f, std::uint64_t current_cycle,
            std::uint64_t extra_delay) override {
    fabric_->send_frame(tile_, sys_->partition().tile_of(dst), f.opcode,
                        std::move(f.payload), current_cycle, extra_delay);
  }

  /// Every signal frame drained from the NIC and due at or before `cycle`.
  void receive(std::uint64_t cycle, std::vector<Frame>& out) override {
    take_due(pending_, cycle, out);
  }

  /// Move every coherence (xtsoc::mem wire-format) frame due at or before
  /// `cycle` onto the end of `out`, addressed to this tile. Coherence
  /// traffic shares the NIC but must not enter the signal inbox — the
  /// mem::System consumes it on the serial spine instead.
  void take_coherence(std::uint64_t cycle,
                      std::vector<mem::System::Incoming>& out) {
    deliver_due(coh_pending_, cycle, [&](Frame& f) {
      out.push_back({tile_, f.opcode, std::move(f.payload)});
    });
  }

  /// Drain everything the NIC has reassembled (stats were recorded at
  /// arrival; popping is timing-neutral), stamp each frame's effective due
  /// cycle, and demux by opcode: coherence frames go to the coherence
  /// queue, everything else (signals) to the signal queue.
  void drain_nic() {
    drained_.clear();
    fabric_->pop_due(tile_, kDrainAll, drained_);
    for (noc::Delivery& d : drained_) {
      std::uint64_t due = d.due_cycle;
      if (d.arrive_cycle + egress_latency_ > due) {
        due = d.arrive_cycle + egress_latency_;
      }
      auto& q = mem::wire::is_coherence(d.opcode) ? coh_pending_ : pending_;
      q.push_back(Frame{d.opcode, std::move(d.payload), due});
    }
  }

  bool has_signals() const { return !pending_.empty(); }
  bool has_coherence() const { return !coh_pending_.empty(); }

  bool idle() const override {
    return pending_.empty() && coh_pending_.empty();
  }

  void save_state(snap::Writer& w) const override { layout(w, *this); }
  void load_state(snap::Reader& r) override { layout(r, *this); }

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self) {
    frames_layout(io, self.pending_);
    frames_layout(io, self.coh_pending_);
  }

  static constexpr std::uint64_t kDrainAll = ~std::uint64_t{0};

  noc::Fabric* fabric_;
  const mapping::MappedSystem* sys_;
  int tile_;
  std::uint64_t egress_latency_;
  std::vector<Frame> pending_;      ///< reassembled signals, still in egress
  std::vector<Frame> coh_pending_;  ///< reassembled coherence frames
  std::vector<noc::Delivery> drained_;  ///< drain_nic scratch, reused
};

}  // namespace xtsoc::cosim
