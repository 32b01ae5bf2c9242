// Overhead probes: how much slower a variant of a workload runs than its
// baseline, measured well enough to gate at a percent or two.
//
// A sub-2% contract sits BELOW the bias a single heap layout can introduce:
// one long-lived measurement once reported an instrumented cosim 6% FASTER
// than the bare one, purely from allocation order. So every probe here
// repeats over kOverheadRounds rounds. Each round builds every variant
// FRESH, in a construction order rotated by one per round (layout luck
// lands on a different side every round), times tightly alternating slices
// and keeps each variant's minimum slice (the robust estimator for "the
// cost of the code itself"). The reported overhead is the MEDIAN across
// rounds, which one lucky or unlucky layout cannot move; the spread across
// rounds (max - min) is reported beside it as the probe's noise floor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "bench_json.hpp"

namespace xtsoc::bench {

/// One variant of a probe. `build()` constructs a fresh, warmed-up
/// workload and returns the callable that runs one slice of it; the
/// callable owns everything the workload needs.
struct OverheadVariant {
  std::function<std::function<void()>()> build;
};

/// Overhead of one variant over the baseline, in percent.
struct Overhead {
  double pct = 0;        ///< median across rounds, clamped at 0
  double noise_pct = 0;  ///< across-round spread (max - min)
};

inline constexpr int kOverheadRounds = 5;
inline constexpr int kOverheadSlices = 12;  ///< per variant, per round

/// Overhead of variants[1..] over variants[0]. Returns one entry per
/// non-baseline variant, in order.
inline std::vector<Overhead> measure_overhead(
    const std::vector<OverheadVariant>& variants) {
  const std::size_t n = variants.size();
  std::vector<std::vector<double>> per_round(n);
  for (int round = 0; round < kOverheadRounds; ++round) {
    std::vector<std::function<void()>> slice(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t which = (static_cast<std::size_t>(round) + j) % n;
      slice[which] = variants[which].build();
    }
    std::vector<double> best(n, 1e9);
    for (int s = 0; s < kOverheadSlices; ++s) {
      for (std::size_t j = 0; j < n; ++j) {
        Timer t;
        slice[j]();
        best[j] = std::min(best[j], t.seconds());
      }
    }
    for (std::size_t j = 1; j < n; ++j) {
      per_round[j].push_back((best[j] / best[0] - 1.0) * 100.0);
    }
  }
  std::vector<Overhead> out;
  for (std::size_t j = 1; j < n; ++j) {
    std::vector<double>& v = per_round[j];
    std::sort(v.begin(), v.end());
    out.push_back({std::max(0.0, v[v.size() / 2]), v.back() - v.front()});
  }
  return out;
}

}  // namespace xtsoc::bench
