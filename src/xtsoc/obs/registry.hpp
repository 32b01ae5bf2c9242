// obs::Registry — the span recorder of the toolchain.
//
// A Registry records where wall-clock time goes: spans, instants and value
// series on named tracks, exported as Chrome trace-event JSON
// (chrome://tracing, Perfetto) for timeline inspection. It holds no
// counts: every count lives once, in its subsystem's stats (SimStats,
// FabricStats, the executors' counters), and reaches users through
// CoSimulation::report().
//
// Cost model (this is instrumentation for a determinism-obsessed
// simulator, so the contract is strict):
//
//   * registry absent (the default — every config's `obs` pointer is
//     null): instrumented code performs one null-pointer test per probe
//     and touches nothing else; bench_cosim gates the residue at <= 2%.
//   * registry attached, tracing off: spans check one relaxed atomic and
//     skip.
//   * tracing on: spans take a steady_clock sample on entry/exit and
//     append to a bounded in-memory buffer (drops are counted, never
//     blocking). Timestamps are wall-clock, so the timeline shows where
//     real time went — the tuning view; logical cycles ride along as an
//     event argument.
//
// Instrumentation NEVER changes simulation behaviour: probes only read
// simulation state. Traces, VCD, stats, report() and checkpoints stay
// byte-identical whether a registry is attached or not, tracing on or off
// (tested in obs_test.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace xtsoc::obs {

/// A track is one horizontal lane of the exported timeline ("kernel",
/// "executor/hw0", "noc", ...). Value 0 is reserved as "no track".
struct TrackId {
  std::uint32_t value = 0;
  bool is_valid() const { return value != 0; }
};

class Registry {
public:
  /// No cycle argument on a trace event.
  static constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

  Registry();

  // --- identity ---------------------------------------------------------------

  /// Find-or-create the track named `name`. Call during setup (construction
  /// of the instrumented object), not from worker threads.
  TrackId track(std::string_view name);
  const std::string& track_name(TrackId t) const;
  std::size_t track_count() const;

  // --- tracing ----------------------------------------------------------------

  void enable_tracing(bool on = true) {
    tracing_.store(on, std::memory_order_relaxed);
  }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Nanoseconds since this registry was constructed (steady clock).
  std::uint64_t now_ns() const;

  /// Record a completed span [start_ns, end_ns) on `track`. `cycle` rides
  /// along as an event argument when not kNoCycle. Thread-safe.
  void record_span(TrackId track, std::string name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t cycle = kNoCycle);
  /// Record an instant event. Thread-safe.
  void record_instant(TrackId track, std::string name, std::uint64_t ts_ns,
                      std::uint64_t cycle = kNoCycle);
  /// Record a counter-series sample (a Chrome "C" event: a stepped graph
  /// named `series` on `track`). Thread-safe.
  void record_value(TrackId track, std::string series, std::uint64_t ts_ns,
                    double value);

  std::size_t event_count() const;
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Cap on buffered trace events (default 1 << 20). Events past the cap
  /// are counted in dropped_events() and discarded.
  void set_event_capacity(std::size_t cap);

  // --- export ------------------------------------------------------------------

  /// The collected trace as Chrome trace-event JSON: one "thread" per
  /// track (metadata is emitted for every track, even eventless ones),
  /// spans as "X" events, instants as "i", counter series as "C".
  /// Timestamps are microseconds.
  std::string chrome_trace() const;
  void write_chrome_trace(std::ostream& os) const;

private:
  struct Event {
    TrackId track;
    char phase;  // 'X', 'i', 'C'
    std::string name;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t cycle = kNoCycle;
    double value = 0.0;  // 'C' only
  };
  void push_event(Event e);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mutex_;
  std::vector<std::string> tracks_;  // [TrackId - 1]
  std::vector<Event> events_;
  std::size_t event_capacity_ = std::size_t{1} << 20;
};

/// RAII span: times the enclosing scope onto a track. Inactive (and
/// cost-free beyond one test) when `reg` is null or tracing is off.
class ScopedSpan {
public:
  ScopedSpan() = default;
  ScopedSpan(Registry* reg, TrackId track, const char* name,
             std::uint64_t cycle = Registry::kNoCycle) {
    if (reg != nullptr && reg->tracing()) begin(reg, track, name, cycle);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  /// Arm an inactive span (for labels that are costly to build: construct
  /// the label only after checking reg->tracing()).
  void begin(Registry* reg, TrackId track, std::string name,
             std::uint64_t cycle = Registry::kNoCycle) {
    reg_ = reg;
    track_ = track;
    name_ = std::move(name);
    cycle_ = cycle;
    start_ = reg->now_ns();
  }
  bool active() const { return reg_ != nullptr; }

  void finish() {
    if (reg_ == nullptr) return;
    reg_->record_span(track_, std::move(name_), start_, reg_->now_ns(), cycle_);
    reg_ = nullptr;
  }

private:
  Registry* reg_ = nullptr;
  TrackId track_;
  std::string name_;
  std::uint64_t start_ = 0;
  std::uint64_t cycle_ = Registry::kNoCycle;
};

// The probe macros. `reg` is an obs::Registry* (may be null).
#define XTSOC_OBS_CONCAT2(a, b) a##b
#define XTSOC_OBS_CONCAT(a, b) XTSOC_OBS_CONCAT2(a, b)
/// Time the enclosing scope as a span named `name` on `track`.
#define OBS_SPAN(reg, track, name) \
  ::xtsoc::obs::ScopedSpan XTSOC_OBS_CONCAT(obs_span_, __COUNTER__)(  \
      (reg), (track), (name))
/// Same, with a logical-cycle argument attached to the event.
#define OBS_SPAN_AT(reg, track, name, cycle) \
  ::xtsoc::obs::ScopedSpan XTSOC_OBS_CONCAT(obs_span_, __COUNTER__)(  \
      (reg), (track), (name), (cycle))

}  // namespace xtsoc::obs
