// Flits: the unit of transfer on the on-chip network.
//
// A boundary frame (opcode + bit-packed payload, see cosim::Frame) is
// segmented by the sending NIC into link-width chunks. The first flit
// carries the routing header and opcode; the last one closes the frame so
// the receiving NIC knows when reassembly is complete. A frame that fits
// in one link transfer travels as a single kHeadTail flit — the common
// case for the narrow synthesized interfaces this repo generates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::noc {

enum class FlitKind : std::uint8_t {
  kHead,      ///< first flit of a multi-flit frame (carries the header)
  kBody,      ///< middle payload chunk
  kTail,      ///< last payload chunk (completes reassembly)
  kHeadTail,  ///< single-flit frame (header + whole payload)
};

const char* to_string(FlitKind k);

/// Network shape, selected by the `topology` domain mark. Every kind routes
/// dimension-ordered over the same (x, y) tile coordinates; they differ in
/// which links exist (edge-clipped, wrapped, or one wrapped row).
enum class TopologyKind : std::uint8_t {
  kMesh = 0,   ///< W×H grid, links clipped at the edges (the default)
  kTorus = 1,  ///< W×H grid with wraparound links in both dimensions
  kRing = 2,   ///< W×1 row with wraparound links (one dimension only)
};

/// Routing policy, selected by the `routing` domain mark.
enum class RoutePolicy : std::uint8_t {
  kXY = 0,        ///< dimension order: correct X first, then Y (the default)
  kYX = 1,        ///< dimension order: correct Y first, then X
  kAdaptive = 2,  ///< minimal-adaptive: pick the less-backpressured
                  ///< productive dimension per hop (credit-based)
};

/// Which path one transmission attempt takes. kPrimary follows the fabric's
/// routing policy; kFallback flips the dimension order (XY attempts detour
/// YX and vice versa) so a retransmission does not march straight back into
/// the link that ate the previous attempt.
enum class RouteMode : std::uint8_t { kPrimary = 0, kFallback = 1 };

const char* to_string(TopologyKind k);
const char* to_string(RoutePolicy p);
const char* to_string(RouteMode m);

struct Flit {
  FlitKind kind = FlitKind::kHeadTail;
  /// Route this attempt primary or fallback (retransmission detour).
  RouteMode route_mode = RouteMode::kPrimary;
  /// Simulation-only taint: set when an injected fault flipped a payload
  /// bit. Real hardware has no such flag — it exists to *verify* the CRC
  /// catches what the injector did (a tainted frame must never deliver).
  bool tainted = false;
  // Routing header (meaningful on every flit: the mesh routes flits, not
  // frames — two frames may interleave on a link, reassembly is keyed by
  // (source, seq)).
  std::uint8_t src_x = 0, src_y = 0;
  std::uint8_t dst_x = 0, dst_y = 0;
  std::uint32_t seq = 0;  ///< per-source frame sequence number

  // Frame header (valid on kHead / kHeadTail).
  std::uint32_t opcode = 0;
  std::uint32_t frame_bytes = 0;  ///< total frame payload length

  // Resilient-transport header (populated only when fault injection arms
  // the NIC CRC/ack layer; all-zero otherwise). frame_id names the logical
  // frame across retransmission attempts — seq names one attempt, so
  // reassembly stays per-attempt while dedup and acks are per-frame.
  std::uint32_t frame_id = 0;
  std::uint32_t crc = 0;          ///< CRC-32 over the whole frame payload

  /// This flit's payload chunk (at most the configured link width).
  std::vector<std::uint8_t> payload;

  // Bookkeeping carried alongside the wire bits (simulation metadata).
  std::uint64_t send_cycle = 0;  ///< cycle the frame entered the source NIC
  std::uint64_t min_due = 0;     ///< earliest delivery (generate-delay)

  bool opens_frame() const {
    return kind == FlitKind::kHead || kind == FlitKind::kHeadTail;
  }
  bool closes_frame() const {
    return kind == FlitKind::kTail || kind == FlitKind::kHeadTail;
  }
};

/// A flit while it is inside the network (router FIFOs and links): its
/// slot in the fabric's FlitPool plus the routing header a router reads,
/// so a hop moves eight bytes and dimension-order routing never touches
/// the flit itself.
struct FlitRef {
  std::uint32_t slot = 0;
  std::uint8_t dst_x = 0, dst_y = 0;
  RouteMode route_mode = RouteMode::kPrimary;
};

/// The flits inside the network, by slot. A flit takes a slot when the NIC
/// injects it and frees it when it is ejected or dropped, and a freed slot
/// is reused first. Which slot a flit holds is invisible outside the
/// fabric: checkpoints save flits by content.
class FlitPool {
public:
  FlitRef put(Flit f) {
    FlitRef out{0, f.dst_x, f.dst_y, f.route_mode};
    if (free_.empty()) {
      out.slot = static_cast<std::uint32_t>(flits_.size());
      flits_.push_back(std::move(f));
    } else {
      out.slot = free_.back();
      free_.pop_back();
      flits_[out.slot] = std::move(f);
    }
    return out;
  }
  Flit& operator[](const FlitRef& r) { return flits_[r.slot]; }
  const Flit& operator[](const FlitRef& r) const { return flits_[r.slot]; }
  /// Move the flit out and free its slot.
  Flit take(const FlitRef& r) {
    free_.push_back(r.slot);
    return std::move(flits_[r.slot]);
  }
  void clear() {
    flits_.clear();
    free_.clear();
  }

private:
  std::vector<Flit> flits_;
  std::vector<std::uint32_t> free_;
};

/// The flit's checkpoint layout (snap/io.hpp): Io is snap::Writer with a
/// const Flit or snap::Reader with a Flit (instantiated in fabric.cpp).
template <class Io, class F>
void flit_layout(Io& io, F& f);
/// Write one flit's checkpoint bytes.
void save_flit(snap::Writer& w, const Flit& f);
/// The shortest flit encoding (kind, four coordinates, five u32 fields,
/// route mode, payload length, two cycles, taint): the element size
/// loaders pass to snap::Reader::count.
inline constexpr std::size_t kFlitBytes = 1 + 4 + 5 * 4 + 1 + 8 + 8 + 8 + 1;

}  // namespace xtsoc::noc
