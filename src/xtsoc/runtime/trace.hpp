// Execution traces.
//
// Every observable step of an execution — creation, deletion, signal send,
// dispatch (state transition), attribute write, log output — is recorded as
// a TraceEvent. Traces serve three masters:
//   * examples print them so users can watch a model run,
//   * the verify module compares *per-instance projections* of traces to
//     prove that a partitioned execution preserves the abstract semantics,
//   * the perf module aggregates them into the measurements that drive
//     repartitioning decisions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "xtsoc/runtime/value.hpp"

namespace xtsoc::runtime {

enum class TraceKind {
  kCreate,     ///< instance created
  kDelete,     ///< instance deleted
  kSend,       ///< signal generated (sender may be null for external inject)
  kDispatch,   ///< signal delivered: state transition + action ran
  kAttrWrite,  ///< attribute assigned by an action
  kIgnored,    ///< signal dropped (no transition, fallback = ignore)
  kLog,        ///< `log` statement output
};

const char* to_string(TraceKind k);

struct TraceEvent {
  TraceKind kind = TraceKind::kLog;
  std::uint64_t tick = 0;  ///< logical time at which this happened
  InstanceHandle subject;  ///< the instance this event is about
  InstanceHandle peer;     ///< kSend: the sender
  EventId event = EventId::invalid();
  StateId from_state = StateId::invalid();
  StateId to_state = StateId::invalid();
  AttributeId attr = AttributeId::invalid();
  std::optional<Value> value;  ///< kAttrWrite: the written value
  std::vector<Value> args;     ///< kSend/kDispatch: signal payload
  std::string text;            ///< kLog: rendered message

  std::string to_string() const;
};

/// An append-only trace. Recording can be disabled for throughput runs.
class Trace {
public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void record(TraceEvent e) {
    if (enabled_) events_.push_back(std::move(e));
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Events about one instance (kSend events project onto the *receiver*).
  std::vector<TraceEvent> projection(const InstanceHandle& inst) const;

  /// All distinct instances appearing as subjects in this trace.
  std::vector<InstanceHandle> subjects() const;

  std::string to_string() const;

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the recorded events and the enabled flag; load replaces the
  /// current contents. Carrying the full history is what makes a restored
  /// run's complete trace byte-identical to an uninterrupted one.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  std::vector<TraceEvent> events_;
  bool enabled_ = true;
};

}  // namespace xtsoc::runtime
