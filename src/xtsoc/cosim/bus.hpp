// The cosim bus: the generated hardware/software interconnect.
//
// Frames are (opcode, bit-packed payload) pairs produced by
// mapping::encode_payload and consumed by mapping::decode_payload — both
// sides hold the SAME InterfaceSpec, which is the paper's §4 consistency
// guarantee made executable. At connect() time the two endpoints exchange
// interface digests; a mismatch (the classic symptom of hand-maintained
// interfaces drifting apart) aborts the co-simulation immediately instead of
// corrupting data silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace xtsoc::fault {
class Plan;
}

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::cosim {

/// Thrown when the two sides of the boundary disagree about the interface.
class InterfaceMismatch : public std::runtime_error {
public:
  explicit InterfaceMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// One message on the wire.
struct Frame {
  std::uint32_t opcode = 0;
  std::vector<std::uint8_t> payload;
  std::uint64_t due_cycle = 0;  ///< earliest delivery cycle
};

/// Frame checkpoint layout, shared by every checkpointed structure that
/// queues frames (Bus, domain outboxes/inboxes, the NIC egress buffer). Io
/// is snap::Writer with a const frame or snap::Reader with a mutable one
/// (snap/io.hpp; instantiated in bus.cpp).
template <class Io, class F>
void frame_layout(Io& io, F& f);
/// The shortest frame encoding (opcode, payload length, due cycle): the
/// element size loaders pass to snap::Reader::count.
inline constexpr std::size_t kFrameBytes = 4 + 8 + 8;
/// A frame queue: its length, then each frame. Loading replaces the queue
/// and refuses a length the snapshot cannot hold.
template <class Io, class Q>
void frames_layout(Io& io, Q& q);

/// Hand every frame of `frames` due at or before `cycle` to `deliver`, in
/// order, and keep the rest in order. Frames carry heterogeneous delays, so
/// dues are not monotone in queue order: the whole queue is scanned. Both
/// domains latch their inbox with it each cycle, and the Bus and a
/// FabricChannel hand out their due frames with it.
template <typename Deliver>
void deliver_due(std::vector<Frame>& frames, std::uint64_t cycle,
                 Deliver&& deliver) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].due_cycle <= cycle) {
      deliver(frames[i]);
    } else {
      if (kept != i) frames[kept] = std::move(frames[i]);
      ++kept;
    }
  }
  frames.resize(kept);
}

/// deliver_due onto the end of `out`: the frames due at or before
/// `cycle`, in order. The caller owns `out`, so a reused buffer makes the
/// hand-over allocation-free.
inline void take_due(std::vector<Frame>& frames, std::uint64_t cycle,
                     std::vector<Frame>& out) {
  deliver_due(frames, cycle, [&out](Frame& f) { out.push_back(std::move(f)); });
}

struct BusStats {
  std::uint64_t frames_to_hw = 0;
  std::uint64_t frames_to_sw = 0;
  std::uint64_t bytes_to_hw = 0;
  std::uint64_t bytes_to_sw = 0;
};

/// Injected transfer errors and the bus's answer to them. A failed attempt
/// is retried with linear backoff (each retry re-arbitrates the bus, so it
/// costs another latency plus a widening penalty); a frame that exhausts
/// the retry budget is dropped and counted — never silently wedged.
struct BusFaultStats {
  std::uint64_t errors = 0;          ///< injected transfer failures
  std::uint64_t retries = 0;         ///< re-arbitrated attempts
  std::uint64_t frames_dropped = 0;  ///< budget exhausted
};

class Bus {
public:
  /// `latency_cycles`: clock cycles a frame spends in flight.
  explicit Bus(int latency_cycles) : latency_(latency_cycles) {}

  /// Digest handshake. Call once before traffic; throws InterfaceMismatch
  /// when the endpoints were generated from different interfaces.
  void connect(const std::string& hw_digest, const std::string& sw_digest);
  bool connected() const { return connected_; }

  /// Queue a frame; it becomes deliverable `latency + extra_delay` cycles
  /// after `current_cycle`.
  void push_to_hw(Frame f, std::uint64_t current_cycle,
                  std::uint64_t extra_delay = 0);
  void push_to_sw(Frame f, std::uint64_t current_cycle,
                  std::uint64_t extra_delay = 0);

  /// Move every frame due at or before `cycle` onto the end of `out`, in
  /// order.
  void pop_due_to_hw(std::uint64_t cycle, std::vector<Frame>& out) {
    take_due(to_hw_, cycle, out);
  }
  void pop_due_to_sw(std::uint64_t cycle, std::vector<Frame>& out) {
    take_due(to_sw_, cycle, out);
  }

  bool empty() const { return to_hw_.empty() && to_sw_.empty(); }
  int latency() const { return latency_; }
  const BusStats& stats() const { return stats_; }

  /// Attach a fault plan (src/xtsoc/fault). Null, or a plan with
  /// busError = 0, leaves every push byte-identical to the plain bus.
  void set_fault(fault::Plan* plan) { fault_ = plan; }
  const BusFaultStats& fault_stats() const { return fstats_; }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize in-flight frames, the handshake flag and both stats blocks.
  /// The latency and attached fault plan are construction-owned.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  void check_connected() const;
  /// Run the injected-error retry loop for one push toward `endpoint`
  /// (0 = hw, 1 = sw). Returns the extra delay the retries cost, or
  /// nullopt when the retry budget ran out and the frame must drop.
  std::optional<std::uint64_t> transfer_penalty(std::uint32_t endpoint,
                                                std::uint64_t cycle);

  int latency_;
  bool connected_ = false;
  std::vector<Frame> to_hw_;
  std::vector<Frame> to_sw_;
  BusStats stats_;
  fault::Plan* fault_ = nullptr;
  BusFaultStats fstats_;
};

}  // namespace xtsoc::cosim
