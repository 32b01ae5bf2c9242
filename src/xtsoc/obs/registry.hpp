// obs::Registry — the one observability surface of the toolchain.
//
// A Registry owns three kinds of instrument:
//
//   * counters  — named monotonic uint64s (atomic adds; safe from the
//     parallel phase-A workers and the kernel's worker pool);
//   * spans     — wall-clock duration events on named tracks, recorded via
//     the RAII ScopedSpan / OBS_SPAN macro, exported as Chrome trace-event
//     JSON (chrome://tracing, Perfetto) for timeline inspection;
//   * snapshot sections — named adapters that render a subsystem's stats
//     struct (SimStats, BusStats, FabricStats, ...) as a JsonValue when a
//     Snapshot is taken, so every stats report serializes through one path.
//
// Cost model (this is instrumentation for a determinism-obsessed
// simulator, so the contract is strict):
//
//   * registry absent (the default — every config's `obs` pointer is
//     null): instrumented code performs one null-pointer test per probe
//     and touches nothing else. Simulation output is byte-identical to an
//     uninstrumented build; bench_cosim gates the residue at <= 2%.
//   * registry attached, tracing off: counters count (atomic adds), spans
//     check one relaxed atomic and skip.
//   * tracing on: spans take a steady_clock sample on entry/exit and
//     append to a bounded in-memory buffer (drops are counted, never
//     blocking). Timestamps are wall-clock, so the timeline shows where
//     real time went — the tuning view; logical cycles ride along as an
//     event argument.
//
// Instrumentation NEVER changes simulation behaviour: probes only read
// simulation state. Traces, VCD, and stats stay byte-identical whether a
// registry is attached or not (tested in obs_test.cpp).
//
// Compile-time kill switch: building with -DXTSOC_OBS_OFF turns the
// OBS_* macros into nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "xtsoc/obs/json.hpp"
#include "xtsoc/obs/snapshot.hpp"

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::obs {

/// A track is one horizontal lane of the exported timeline ("kernel",
/// "executor/hw0", "noc", ...). Value 0 is reserved as "no track".
struct TrackId {
  std::uint32_t value = 0;
  bool is_valid() const { return value != 0; }
};

/// One named monotonic counter. Addresses are stable for the lifetime of
/// the owning Registry, so instrumented code holds a `Counter*` and pays
/// exactly one null test + one relaxed atomic add per increment.
class Counter {
public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void add(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Overwrite the count. Checkpoint restore only — instrumented code must
  /// stick to add() so concurrent increments never lose updates.
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::atomic<std::uint64_t> v_{0};
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

  /// Find-or-create a counter. The returned pointer stays valid for the
  /// registry's lifetime. Setup-time only, like track().
  Counter* counter(std::string_view name);
  /// All counters as (name, value), sorted by name — the stable order every
  /// report uses.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;

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

  // --- snapshot sections -------------------------------------------------------

  /// Register a named snapshot section; `fn` runs at snapshot() time.
  /// Re-registering a name replaces the previous adapter.
  void add_section(std::string name, std::function<JsonValue()> fn);
  void remove_section(std::string_view name);

  /// Assemble a Snapshot: every registered section (registration order),
  /// then a "counters" object (name-sorted).
  Snapshot snapshot() const;

  // --- checkpointing -----------------------------------------------------------

  /// Serialize every counter as (name, value), name-sorted. Tracks, trace
  /// events and sections are observation-side state and not checkpointed.
  void save_counters(snap::Writer& w) const;
  /// Restore counter values; names not present yet are created, so the
  /// restored report shows the same counter set as the uninterrupted run.
  void load_counters(snap::Reader& r);

  // --- export ------------------------------------------------------------------

  /// The collected trace as Chrome trace-event JSON: one "thread" per
  /// track (metadata is emitted for every track, even eventless ones),
  /// spans as "X" events, instants as "i", counter series as "C".
  /// Timestamps are microseconds.
  std::string chrome_trace() const;
  void write_chrome_trace(std::ostream& os) const;

private:
  /// The checkpoint layout behind save_counters and load_counters
  /// (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct Event {
    TrackId track;
    char phase;  // 'X', 'i', 'C'
    std::string name;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t cycle = kNoCycle;
    double value = 0.0;  // 'C' only
  };
  struct Section {
    std::string name;
    std::function<JsonValue()> fn;
  };

  void push_event(Event e);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mutex_;
  std::vector<std::string> tracks_;                 // [TrackId - 1]
  std::vector<std::unique_ptr<Counter>> counters_;  // stable addresses
  std::vector<Event> events_;
  std::size_t event_capacity_ = std::size_t{1} << 20;
  std::vector<Section> sections_;
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

// The probe macros. `reg` is an obs::Registry* (may be null), `counter` an
// obs::Counter* (may be null). With -DXTSOC_OBS_OFF they expand to nothing.
#if !defined(XTSOC_OBS_OFF)
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
/// Increment a counter by 1 / by n.
#define OBS_COUNT(counter)                    \
  do {                                        \
    if ((counter) != nullptr) (counter)->add(); \
  } while (0)
#define OBS_COUNT_N(counter, n)                  \
  do {                                           \
    if ((counter) != nullptr) (counter)->add(n); \
  } while (0)
#else
#define OBS_SPAN(reg, track, name) \
  do {                             \
  } while (0)
#define OBS_SPAN_AT(reg, track, name, cycle) \
  do {                                       \
  } while (0)
#define OBS_COUNT(counter) \
  do {                     \
  } while (0)
#define OBS_COUNT_N(counter, n) \
  do {                          \
  } while (0)
#endif

}  // namespace xtsoc::obs
