// fault::Campaign — a parallel fault-injection campaign.
//
// One campaign = N runs of the same workload, each under a Plan derived
// from seed_for(base_seed, i). The runs fan out across the existing
// hwsim::WorkerPool (the same pool the windowed scheduler uses) and the
// per-seed outcomes aggregate into one obs::Snapshot. Outcomes are stored
// by run index, so the snapshot is byte-identical at every campaign
// thread count — scheduling decides only who computes a row, never where
// it lands.
//
// The Campaign itself is workload-agnostic: the caller supplies a functor
// that builds + drives one run for a given seed (a CoSimulation under
// xtsocc, anything in tests). That keeps this library free of a
// dependency on cosim; cosim::outcome_of() (cosim/report.hpp) is the
// ready-made extractor for co-simulation runs.
#pragma once

#include <functional>
#include <vector>

#include "xtsoc/fault/fault.hpp"
#include "xtsoc/obs/snapshot.hpp"

namespace xtsoc::hwsim {
class WorkerPool;
}

namespace xtsoc::fault {

/// What one campaign run produced. `survived` is the per-run verdict: the
/// workload completed with nothing lost (transports may have retried —
/// resilience working is still survival).
struct RunOutcome {
  std::uint64_t seed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;  ///< messages that reached their destination
  std::uint64_t dropped = 0;    ///< messages lost after the retry budget
  std::uint64_t retried = 0;    ///< retransmissions + bus/bridge retries
  std::uint64_t injected = 0;   ///< faults the plan injected (all kinds)
  bool survived = false;
};

struct CampaignResult {
  std::uint64_t base_seed = 0;
  std::vector<RunOutcome> runs;  ///< indexed by run, NOT completion order

  std::size_t survivors() const;
  /// {"campaign": {runs, seed, survivors, survival_rate, totals},
  ///  "runs": [{seed, cycles, delivered, dropped, retried, injected,
  ///            survived}, ...]} — see docs/FAULTS.md.
  obs::Snapshot to_snapshot() const;
};

class Campaign {
public:
  /// `runs` seeds derived from `base.seed`; `threads` concurrent runs
  /// (1 = serial; every thread count produces the identical snapshot).
  Campaign(FaultSpec base, int runs, int threads = 1);

  /// The i-th run's seed: a splitmix64 hop from the base seed, so
  /// neighbouring runs share no stream state.
  static std::uint64_t seed_for(std::uint64_t base_seed, int index);

  /// Execute the campaign: `one(index, seed)` builds, drives and
  /// summarizes one run (it typically constructs a Plan{spec with this
  /// seed} and a fresh workload around it — runs share nothing, which is
  /// what makes the fan-out safe). Exceptions propagate; like the
  /// windowed scheduler, the lowest-index run's error wins.
  CampaignResult run(
      const std::function<RunOutcome(int index, std::uint64_t seed)>& one) const;

  /// Same, but fan out over a caller-owned pool instead of spawning a
  /// fresh one per call, so a caller running many campaigns pays the pool
  /// spin-up once; concurrency is then bounded by the pool's size rather
  /// than `threads`. A null pool falls back to run(one).
  CampaignResult run(
      const std::function<RunOutcome(int index, std::uint64_t seed)>& one,
      hwsim::WorkerPool* pool) const;

  FaultSpec spec_for(int index) const {
    FaultSpec s = base_;
    s.seed = seed_for(base_.seed, index);
    return s;
  }

private:
  FaultSpec base_;
  int runs_;
  int threads_;
};

}  // namespace xtsoc::fault
