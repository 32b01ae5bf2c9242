// xtsoc::fault — mark-driven deterministic fault injection.
//
// The paper's thesis is that every platform decision lives in the marks,
// not the model; fault behaviour is no exception. A FaultSpec is read
// straight from domain-scope marks (faultSeed, faultRate.*, faultWindow —
// the sticky notes of a failure scenario) and compiled into a Plan: one
// xorshift64* PRNG stream per injection site (a mesh link, a bus
// endpoint, a bridge wire), all derived from the single seed. Because
// every transport consults its stream at a point that executes in the
// same serial order at every `threads`/`window` setting (the fabric tick,
// the serial outbox flush, the bridge carry loop), an identical plan and
// seed reproduce the exact same faults cycle for cycle — the same
// determinism contract the windowed scheduler already honours (PRs 2-3).
//
// The Plan only *decides*; the transports (noc::Fabric, cosim::Bus,
// bridge::SystemExecutor) inject and count. A null Plan pointer leaves
// every hook a dead null-test, so the fault-free path stays byte-identical
// to a build that never heard of faults (CI gates the overhead at <= 2%,
// same as the obs probes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "xtsoc/marks/marks.hpp"

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::fault {

/// Every key FaultSpec::from_marks reads (domain scope; declared with the
/// other platform marks in marks.hpp). Rates are per-decision-point
/// probabilities: flitDrop/flitCorrupt per flit per link traversal,
/// linkDown per link per cycle, busError per bus transfer attempt.
inline constexpr const char* kKeys[] = {
    marks::kFaultSeed,           marks::kFaultWindow,
    marks::kFaultWindowStart,    marks::kFaultRateFlitDrop,
    marks::kFaultRateFlitCorrupt, marks::kFaultRateLinkDown,
    marks::kFaultRateBusError};

/// The raw fault scenario, as read from the marks.
struct FaultSpec {
  /// faultSeed: the single reproducibility root
  std::uint64_t seed = marks::default_of(marks::kFaultSeed);
  double flit_drop = marks::default_of(marks::kFaultRateFlitDrop);
  double flit_corrupt = marks::default_of(marks::kFaultRateFlitCorrupt);
  double link_down = marks::default_of(marks::kFaultRateLinkDown);
  double bus_error = marks::default_of(marks::kFaultRateBusError);
  /// faultWindow: inject only during cycles (window_start, window];
  /// window 0 = no upper bound.
  std::uint64_t window = marks::default_of(marks::kFaultWindow);
  /// faultWindow.start: no faults during the first `window_start` cycles
  /// (by default from the beginning). The bound is exclusive — cycles are
  /// 1-indexed, so a start of N masks exactly cycles 1..N — which is what
  /// makes warm-start campaigns exact: a checkpoint taken after
  /// `window_start` cycles has consulted no stream at all, so restoring
  /// and attaching a fresh per-seed Plan replays the cold run.
  std::uint64_t window_start = marks::default_of(marks::kFaultWindowStart);
  /// Transmission attempts a resilient transport makes before reporting a
  /// message as dropped (never a hang). Code-settable, not a mark.
  int retry_budget = 4;

  /// Read the fault marks out of `marks` (missing keys keep defaults).
  /// Ranges are marks::validate's job; this reader does not re-check them.
  static FaultSpec from_marks(const marks::MarkSet& marks);

  /// True when any rate is positive — a zero-rate spec injects nothing.
  bool any() const {
    return flit_drop > 0.0 || flit_corrupt > 0.0 || link_down > 0.0 ||
           bus_error > 0.0;
  }
};

/// Where a PRNG stream is anchored. Each (kind, site) pair owns an
/// independent stream, so adding traffic on one link never perturbs the
/// fault sequence of another.
enum class Site : std::uint32_t {
  kFlitDrop = 1,
  kFlitCorrupt = 2,
  kLinkDown = 3,
  kBusError = 4,
  kBridge = 5,
};

/// The compiled fault plan: spec + per-site xorshift64* streams. One Plan
/// drives one run; it is NOT thread-safe (all transports that consult it
/// already execute serially — see the header comment).
class Plan {
public:
  Plan() = default;
  explicit Plan(FaultSpec spec) : spec_(spec) {}

  const FaultSpec& spec() const { return spec_; }

  /// True when `cycle` is inside the injection window (window_start
  /// exclusive, window inclusive).
  bool active(std::uint64_t cycle) const {
    return cycle > spec_.window_start &&
           (spec_.window == 0 || cycle <= spec_.window);
  }

  // --- decision points (each advances the site's stream iff its rate is
  // --- positive and `cycle` is inside the window) ----------------------------
  bool flit_drop(std::uint32_t link, std::uint64_t cycle) {
    return roll(Site::kFlitDrop, link, spec_.flit_drop, cycle);
  }
  bool flit_corrupt(std::uint32_t link, std::uint64_t cycle) {
    return roll(Site::kFlitCorrupt, link, spec_.flit_corrupt, cycle);
  }
  /// 0 = the link stays up this cycle; otherwise the outage length in
  /// cycles (4..11, drawn from the link's stream).
  std::uint32_t link_outage(std::uint32_t link, std::uint64_t cycle) {
    if (!roll(Site::kLinkDown, link, spec_.link_down, cycle)) return 0;
    return 4 + static_cast<std::uint32_t>(next(Site::kLinkDown, link) & 7);
  }
  bool bus_error(std::uint32_t endpoint, std::uint64_t cycle) {
    return roll(Site::kBusError, endpoint, spec_.bus_error, cycle);
  }
  /// Bridges are untimed; the carry round stands in for the cycle.
  bool bridge_error(std::uint32_t wire, std::uint64_t round) {
    return roll(Site::kBusError, 0x10000u + wire, spec_.bus_error, round);
  }
  /// Uniform pick in [0, bound) from `site`'s corrupt stream — which
  /// payload bit an injected corruption flips.
  std::uint32_t pick(std::uint32_t link, std::uint32_t bound) {
    return bound == 0
               ? 0
               : static_cast<std::uint32_t>(next(Site::kFlitCorrupt, link) %
                                            bound);
  }

  // --- checkpointing ---------------------------------------------------------
  /// Persist / resume the per-site stream positions. The spec itself is
  /// not carried (a restored run may attach a different plan — that is the
  /// whole warm-campaign trick); only the consumed-randomness positions
  /// are, so a same-spec restore replays the exact fault sequence.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  /// Advance the (kind, site) stream and return the next raw 64-bit draw.
  std::uint64_t next(Site kind, std::uint32_t site);
  /// One Bernoulli trial against `rate`. Rates <= 0 return false WITHOUT
  /// touching the stream, so a zero-rate plan never draws — the attached
  /// worst case the bench overhead gate measures.
  bool roll(Site kind, std::uint32_t site, double rate, std::uint64_t cycle);

  FaultSpec spec_;
  /// (kind << 32 | site) -> xorshift64* state. Ordered map: iteration
  /// order never matters (lookup only), but determinism costs nothing.
  std::map<std::uint64_t, std::uint64_t> streams_;
};

/// CRC-32 (IEEE 802.3, reflected) over a byte span — the end-to-end
/// payload check the resilient NIC applies at reassembly. Bitwise, no
/// table: frame payloads here are tens of bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

}  // namespace xtsoc::fault
