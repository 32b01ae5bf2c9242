// Deterministic pseudo-random number generation for workload generators.
//
// Benchmarks and property tests must be reproducible run-to-run, so all
// randomness in this repository flows through this splitmix64 generator
// seeded explicitly — never through std::random_device.
#pragma once

#include <cstdint>

namespace xtsoc {

/// One splitmix64 step: the seed-scrambling primitive every derived stream
/// in the repository starts from (fault sites, campaign seeds, snapshot
/// self-checks). Stateless — feed it the previous output to iterate.
inline constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xorshift64* stream: the per-site generator of fault::Plan, exposed here
/// so the NoC traffic generators draw from the same sequence. State must
/// never be zero (xorshift's one fixed point); seed() forces the low bit,
/// and the resumable raw state is readable/settable so a checkpoint can
/// persist a stream mid-sequence.
class Xorshift64Star {
public:
  Xorshift64Star() = default;
  /// Derive a never-zero state from an arbitrary 64-bit seed.
  static Xorshift64Star seeded(std::uint64_t seed) {
    Xorshift64Star s;
    s.state_ = splitmix64(seed) | 1;
    return s;
  }

  std::uint64_t next() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dULL;
  }

  /// Uniform double in [0, 1) — the Bernoulli draw fault::Plan rolls.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  std::uint64_t state() const { return state_; }
  /// Resume from a persisted state. Zero (the fixed point) is unreachable
  /// from any seeded stream, so it only appears via corruption; map it to 1
  /// rather than wedging the generator.
  void set_state(std::uint64_t s) { state_ = s != 0 ? s : 1; }

private:
  std::uint64_t state_ = 1;
};

/// splitmix64: tiny, fast, passes BigCrush; perfect for test workloads.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). `bound` must be nonzero.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

private:
  std::uint64_t state_;
};

}  // namespace xtsoc
