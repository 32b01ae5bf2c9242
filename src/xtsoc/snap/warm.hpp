// snap::warm — warm-start fault campaigns.
//
// A fault campaign re-runs one workload under N derived seeds. The cold
// path pays full price N times: elaborate, populate, warm the system up to
// the interesting region, then inject. But the warm-up prefix is
// IDENTICAL across seeds whenever the fault window opens at or after the
// checkpoint cycle (faultWindow.start): no PRNG stream is consulted before
// the window opens, so the first `warm_cycles` cycles are byte-for-byte
// the same simulation regardless of seed.
//
// WarmCampaign exploits that: it runs the shared prefix ONCE — with an
// armed plan of the campaign's rates, so the transports take the same
// (resilient) framing path they will under injection — snapshots it, and
// serves every seed by restore + fresh Plan(seed_i) + run the remainder.
// The per-seed cost drops from (elaborate + warm + run) to
// (elaborate + load_state + run); exactness is structural, not sampled:
// restore is byte-identical (snap_test) and zero pre-window draws mean the
// fresh plan sees the same stream states a cold run would have at the
// checkpoint. bench_snap gates the speedup (>= 5x on the 4x4-mesh
// campaign); `xtsocc --campaign` takes this path on its own for a
// stimulus-free campaign whose faultWindow.start opens after cycle 0.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/fault/campaign.hpp"

namespace xtsoc::snap {

class WarmCampaign {
public:
  /// Run the shared prefix and take the checkpoint: elaborate from `sys`
  /// under `config`, call `populate` (create instances, inject stimuli),
  /// run `warm_cycles`, snapshot. `base.window_start` must be >=
  /// `warm_cycles` (the exactness precondition above); throws SnapError
  /// otherwise when any rate is armed. `sys` must outlive this object.
  WarmCampaign(const mapping::MappedSystem& sys, cosim::CoSimConfig config,
               fault::FaultSpec base, std::uint64_t warm_cycles,
               std::uint64_t run_cycles,
               std::function<void(cosim::CoSimulation&)> populate);

  const std::vector<std::uint8_t>& checkpoint() const { return bytes_; }
  std::uint64_t warm_cycles() const { return warm_cycles_; }
  std::uint64_t run_cycles() const { return run_cycles_; }
  const fault::FaultSpec& base_spec() const { return base_; }

  /// One campaign run from the warm checkpoint: re-elaborate, restore
  /// (keeping the fresh plan's streams), run the remainder under
  /// Plan(base with `seed`), and summarize. Safe to call concurrently —
  /// every call builds its own simulation.
  fault::RunOutcome run_seed(int index, std::uint64_t seed) const;

  /// The whole campaign through fault::Campaign's fan-out; `pool` (may be
  /// null) is a caller-owned worker pool shared across campaigns.
  fault::CampaignResult run(int runs, int threads,
                            hwsim::WorkerPool* pool = nullptr) const;

private:
  const mapping::MappedSystem* sys_;
  cosim::CoSimConfig config_;
  fault::FaultSpec base_;
  std::uint64_t warm_cycles_;
  std::uint64_t run_cycles_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace xtsoc::snap
