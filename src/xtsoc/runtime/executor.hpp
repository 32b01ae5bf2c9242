// The abstract model executor.
//
// Implements the paper's §2 execution semantics directly on the compiled
// model: concurrently executing state machines communicate only by signals;
// on receipt of a signal the destination state's actions run to completion
// before the next signal is processed; the receiver's actions execute after
// the sender's (cause precedes effect, guaranteed by queueing).
//
// Queue discipline (xtUML): events an instance sends to itself are consumed
// before other pending events — two FIFO queues, self-directed drained
// first. A plain-FIFO policy is available as the ablation studied in
// bench_equivalence.
//
// Time is logical: `generate ... delay N` schedules N ticks ahead; run_all()
// advances time to the next deadline whenever the ready queues drain.
//
// Partitioned operation (used by cosim): construct with a locality filter
// and a remote-out callback. Signals to non-local classes are handed to the
// callback instead of the local queues; signals arriving from the bus enter
// via deliver_remote().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>

#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/obs/registry.hpp"
#include "xtsoc/runtime/compiled_actions.hpp"
#include "xtsoc/runtime/database.hpp"
#include "xtsoc/runtime/interp.hpp"
#include "xtsoc/runtime/trace.hpp"

namespace xtsoc::runtime {

/// One queued signal.
struct EventMessage {
  InstanceHandle target;
  EventId event = EventId::invalid();
  std::vector<Value> args;
  InstanceHandle sender;       ///< null for external stimuli
  std::uint64_t deliver_at = 0;
  std::uint64_t seq = 0;       ///< FIFO tiebreak for the timer heap

  bool self_directed() const { return sender == target && !sender.is_null(); }
};

/// Message checkpoint layout, shared by every checkpointed structure that
/// queues signals (executor queues, the bridge's pending forwards). Io is
/// snap::Writer with a const message or snap::Reader with a mutable one
/// (snap/io.hpp; instantiated in executor.cpp).
template <class Io, class M>
void message_layout(Io& io, M& m);
/// The shortest message encoding (two handles, the event, the argument
/// count and two u64 stamps): the element size loaders pass to
/// snap::Reader::count.
inline constexpr std::size_t kMessageBytes = 12 + 4 + 8 + 12 + 8 + 8;

/// Pluggable backing store for `mem.read` / `mem.write`. The cosim layer
/// installs a port per domain that routes into the xtsoc::mem hierarchy;
/// standalone executors fall back to a private flat map.
class MemoryPort {
public:
  virtual ~MemoryPort() = default;
  virtual std::int64_t read(std::int64_t addr) = 0;
  virtual void write(std::int64_t addr, std::int64_t value) = 0;
};

enum class QueuePolicy {
  kXtuml,     ///< self-directed events outrank external events
  kFifoOnly,  ///< single FIFO (ablation)
};

/// Which of the (behaviourally identical) action engines runs actions.
enum class ActionEngine {
  kAstWalk,  ///< tree-walking interpreter (runtime/interp.*), the reference
  kJit,      ///< AOT-compiled native code (xtsoc::jit), walker fallback
};

struct ExecutorConfig {
  QueuePolicy policy = QueuePolicy::kXtuml;
  ActionEngine engine = ActionEngine::kAstWalk;
  /// Native actions for the kJit engine. Not owned; must outlive the
  /// executor. Null (or an action the module doesn't cover) runs that
  /// dispatch on the walker, with identical observable behaviour.
  const CompiledActions* compiled = nullptr;
  bool trace_enabled = true;
  std::uint64_t max_ops_per_action = 10'000'000;
  /// Optional observability sink. Dispatch spans ("Class.event", one per
  /// run-to-completion block) land on `obs_track`; when the track is left
  /// invalid a track named "executor" is created. Counters are named after
  /// the track ("<track>.dispatches", "<track>.emits").
  obs::Registry* obs = nullptr;
  obs::TrackId obs_track;
};

class Executor : public Host {
public:
  explicit Executor(const oal::CompiledDomain& compiled,
                    ExecutorConfig config = {});

  /// Partitioned construction: only classes for which `is_local` returns
  /// true live here; signals to other classes go to `remote_out`.
  Executor(const oal::CompiledDomain& compiled, ExecutorConfig config,
           std::function<bool(ClassId)> is_local,
           std::function<void(EventMessage)> remote_out);

  // --- population -----------------------------------------------------------

  /// Create an instance (initial state, default attributes). Recorded in
  /// the trace. The initial state's action does NOT run (xtUML: actions run
  /// on transition, not on creation).
  InstanceHandle create(ClassId cls);
  InstanceHandle create(std::string_view class_name);
  /// Create and overwrite selected attributes by name.
  InstanceHandle create_with(
      std::string_view class_name,
      const std::vector<std::pair<std::string, Value>>& attrs);
  void destroy(const InstanceHandle& h);

  // --- stimuli ---------------------------------------------------------------

  /// Inject an external signal (sender = null).
  void inject(const InstanceHandle& target, EventId event,
              std::vector<Value> args = {}, std::uint64_t delay = 0);
  void inject(const InstanceHandle& target, std::string_view event_name,
              std::vector<Value> args = {}, std::uint64_t delay = 0);

  /// Deliver a signal that crossed the partition boundary (cosim only).
  void deliver_remote(EventMessage m);

  // --- execution -------------------------------------------------------------

  /// Dispatch exactly one ready signal. Returns false if nothing is ready
  /// at the current time (there may still be delayed events pending).
  bool step();

  /// Dispatch the oldest ready signal whose message satisfies `pred`,
  /// leaving other queued signals untouched and in order. Used by the
  /// hardware lowering to enforce one-event-per-instance-per-clock.
  /// Returns false if no ready signal satisfies the predicate.
  bool step_if(const std::function<bool(const EventMessage&)>& pred);

  /// Copies of every ready signal, self queue first then external, each in
  /// queue order. Used by the state-space explorer to enumerate legal
  /// scheduler choices.
  std::vector<EventMessage> ready_snapshot() const;

  /// Dispatch the `index`-th ready signal of ready_snapshot()'s ordering.
  /// Returns false if out of range.
  bool dispatch_ready(std::size_t index);

  /// Drain all ready signals at the current time. Returns dispatch count.
  std::size_t run_to_quiescence(std::size_t max_dispatches = kNoLimit);

  /// Run until no signals remain anywhere, advancing time across delays.
  std::size_t run_all(std::size_t max_dispatches = kNoLimit);

  /// Move logical time forward, releasing due delayed events into the
  /// ready queues. Does not dispatch.
  void advance_time(std::uint64_t ticks);

  /// Next timer deadline, if any delayed event is pending.
  std::optional<std::uint64_t> next_deadline() const;

  bool idle() const;  ///< no ready events (delayed may remain)
  bool drained() const;  ///< no events at all

  // --- Host interface (called by the interpreter) ----------------------------

  Database& database() override { return db_; }
  const Database& database() const { return db_; }
  std::uint64_t now() const override { return now_; }
  void emit(const InstanceHandle& sender, const InstanceHandle& target,
            EventId event, std::vector<Value> args,
            std::uint64_t delay) override;
  /// Signal payload vectors come from a recycling pool: dispatch() returns
  /// each consumed vector's storage to it, so a steady-state signal loop
  /// (generate -> dispatch -> generate) performs no payload allocation.
  std::vector<Value> acquire_args(std::size_t n) override;
  /// Return a spent payload vector's storage to the pool. Public so the
  /// cosim domains can recycle messages they serialized onto the wire.
  void recycle_args(std::vector<Value>&& args);
  void on_create(const InstanceHandle& h) override;
  void on_delete(const InstanceHandle& h) override;
  void on_attr_write(const InstanceHandle& h, AttributeId attr,
                     const Value& v) override;
  void on_log(std::string text) override;
  std::int64_t mem_read(std::int64_t addr) override {
    if (mem_port_) return mem_port_->read(addr);
    auto it = flat_mem_.find(addr);
    return it == flat_mem_.end() ? 0 : it->second;
  }
  void mem_write(std::int64_t addr, std::int64_t value) override {
    if (mem_port_) mem_port_->write(addr, value);
    else flat_mem_[addr] = value;
  }
  /// Route `mem.*` through an external memory model instead of the flat
  /// map. Not owned; pass nullptr to detach. The flat map is only used
  /// (and only checkpointed) while no port is attached.
  void set_memory_port(MemoryPort* port) { mem_port_ = port; }

  // --- observability ----------------------------------------------------------

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  const oal::CompiledDomain& compiled() const { return *compiled_; }
  const xtuml::Domain& domain() const { return compiled_->domain(); }
  std::uint64_t dispatch_count() const { return dispatches_; }
  std::uint64_t dispatch_count(ClassId cls) const;
  /// Largest number of signals simultaneously pending (ready + delayed)
  /// over the whole run — the queue-sizing number for the mapped system.
  std::size_t queue_high_water() const { return high_water_; }
  std::uint64_t ops_executed() const { return ops_; }
  /// Interpreter ops spent in actions of `cls` — the per-class work
  /// estimate that drives repartitioning advice.
  std::uint64_t ops_executed(ClassId cls) const;

  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  // --- checkpointing ----------------------------------------------------------
  /// Serialize the full execution state: population, trace, both ready
  /// queues, the timer heap, logical time, sequence/dispatch/op counters.
  /// Caches (the transition table, the arg pool) are rebuilt on demand and
  /// deliberately not carried. load_state requires an executor
  /// over the same compiled domain; not legal mid-dispatch.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  void dispatch(EventMessage m);
  void enqueue_ready(EventMessage m);
  void release_due_timers();
  ClassId class_of(std::string_view name) const;

  /// transition_on() through a dense per-class [state × event] table,
  /// built on first dispatch into the class. Every dispatch pays one
  /// lookup where it used to pay a linear scan of the transition list —
  /// shared overhead on the hot path of both engines.
  const xtuml::TransitionDef* transition_for(const xtuml::ClassDef& def,
                                             StateId from, EventId event);

  const oal::CompiledDomain* compiled_;
  ExecutorConfig config_;
  Database db_;
  Trace trace_;

  std::deque<EventMessage> self_queue_;
  std::deque<EventMessage> ext_queue_;

  struct TimerOrder {
    bool operator()(const EventMessage& a, const EventMessage& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<EventMessage, std::vector<EventMessage>, TimerOrder>
      timers_;

  std::function<bool(ClassId)> is_local_;          // null = everything local
  std::function<void(EventMessage)> remote_out_;

  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatches_ = 0;
  std::vector<std::uint64_t> dispatches_by_class_;
  std::vector<std::uint64_t> ops_by_class_;
  /// Dense transition lookup per class: [state * event_count + event].
  /// Pointers into the domain's ClassDef::transitions (stable, outlives us).
  std::vector<std::vector<const xtuml::TransitionDef*>> transitions_;
  /// Recycled signal-payload vectors, capped at kMaxPooledArgs entries.
  std::vector<std::vector<Value>> arg_pool_;
  static constexpr std::size_t kMaxPooledArgs = 256;
  std::uint64_t ops_ = 0;
  std::size_t high_water_ = 0;
  /// `mem.*` backing: external port when attached, flat map otherwise.
  /// Ordered map so checkpoints serialize in a deterministic order.
  MemoryPort* mem_port_ = nullptr;
  std::map<std::int64_t, std::int64_t> flat_mem_;
  /// Instance whose action is currently running (stamps `log` trace events).
  InstanceHandle current_;

  // Observability (null members when no registry is attached).
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;
};

}  // namespace xtsoc::runtime
