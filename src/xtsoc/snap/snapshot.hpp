// snap::snapshot — the versioned checkpoint file format.
//
// A snapshot is the COMPLETE dynamic state of one co-simulation at a quiet
// point (between run calls), framed for safe storage:
//
//   magic "XSNP" | u32 version | sections | u32 CRC-32 (whole preceding file)
//
// Sections (tagged, length-prefixed — see snap/io.hpp):
//
//   'H' header : interface digest, cycle count, content flags. Always
//                first; readable without touching the state payload
//                (inspect()).
//   'C' cosim  : CoSimulation::save_state — kernel, interconnect,
//                channel buffers, each domain's executor, outbox and
//                inbox, cycle counter, memory hierarchy.
//   'F' fault  : fault::Plan RNG stream positions (present only when a
//                plan was attached at save time).
//   'O' obs    : obs counters, written only by older builds (header flag
//                has_obs_counters); restore() skips it, save() never
//                writes it.
//
// The structure of the simulation (netlist, partition, topology) is NOT in
// the file: restore() re-elaborates a CoSimulation from the same
// MappedSystem — with ANY threads/window configuration — and loads state
// into it. The interface digest pins "the same MappedSystem"; the CRC is
// verified before any parsing, so a truncated or bit-rotted file is
// rejected with a diagnostic instead of deserializing garbage.
//
// Contract (tested by snap_test's determinism grid): a restored run
// produces byte-identical traces, VCD, stats and report() output to the
// uninterrupted run, at every thread count and window size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xtsoc/snap/io.hpp"

namespace xtsoc::cosim {
class CoSimulation;
}
namespace xtsoc::fault {
class Plan;
}
namespace xtsoc::obs {
class Registry;
}

namespace xtsoc::snap {

/// File format version. Bump on any layout change; restore() rejects every
/// version it was not built for (no silent cross-version reads).
/// v2: the fabric F-section leads with a typed (topology kind, routing
/// policy) shape guard, and the flit route-mode byte is the RouteMode enum
/// (primary/fallback) rather than a raw 0/1.
/// v3: the C section appends the executor flat-memory maps, per-channel
/// coherence egress queues, and the xtsoc::mem hierarchy state (store
/// buffers, value store, cache arrays, MSHRs, directory, DRAM timers).
/// v4: the C section drops the software task scheduler's ready flags and
/// step counters; the software executor is stepped directly.
inline constexpr std::uint32_t kSnapVersion = 4;

/// Parsed 'H' section.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::string digest;            ///< interface digest of the saved system
  std::uint64_t cycle = 0;       ///< co-simulation cycle at save time
  bool has_fault_streams = false;
  /// Set only in files from older builds, which appended an 'O' section of
  /// obs counters; restore() skips that section.
  bool has_obs_counters = false;
};

struct RestoreOptions {
  /// Load the saved fault-plan RNG positions into the attached plan
  /// (byte-identical resume of a faulty run). false = keep the attached
  /// plan's own fresh streams — the warm-campaign mode: one checkpoint,
  /// many seeds (see snap/warm.hpp).
  bool load_fault_streams = true;
};

/// Serialize `cs` into a snapshot byte buffer. `plan` adds the 'F' section
/// when non-null; pass whatever the run had attached. When `obs` is tracing,
/// the save is recorded as a span on its "snap" track; the bytes never
/// depend on `obs`. Call between run calls.
std::vector<std::uint8_t> save(const cosim::CoSimulation& cs,
                               const fault::Plan* plan = nullptr,
                               obs::Registry* obs = nullptr);

/// Validate magic, version, CRC and interface digest, then load the state
/// into `cs` (freshly elaborated from the same MappedSystem). `plan`
/// receives the 'F' section when present and non-null; a null `plan` skips
/// it. When `obs` is tracing, the restore is recorded as a span on its
/// "snap" track. Throws SnapError on any mismatch.
SnapshotInfo restore(cosim::CoSimulation& cs, const std::uint8_t* data,
                     std::size_t size, fault::Plan* plan = nullptr,
                     obs::Registry* obs = nullptr, RestoreOptions opts = {});

/// Validate magic, version and CRC, and parse the header only.
SnapshotInfo inspect(const std::uint8_t* data, std::size_t size);

// --- file helpers -------------------------------------------------------------

/// Write `bytes` to `path` (truncating). Throws SnapError on I/O failure.
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);
/// Read the whole file. Throws SnapError on I/O failure.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace xtsoc::snap
