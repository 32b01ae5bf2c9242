#include "xtsoc/runtime/executor.hpp"

#include <algorithm>

#include "xtsoc/snap/io.hpp"

namespace xtsoc::runtime {

namespace {

/// The event `event` of `target`'s class, or null when the handle or the
/// id names nothing in `domain`.
const xtuml::EventDef* event_def(const xtuml::Domain& domain,
                                 const InstanceHandle& target, EventId event) {
  if (!target.cls.is_valid() || target.cls.value() >= domain.class_count()) {
    return nullptr;
  }
  const xtuml::ClassDef& def = domain.cls(target.cls);
  return event.value() < def.events.size() ? &def.event(event) : nullptr;
}

}  // namespace

Executor::Executor(const oal::CompiledDomain& compiled, ExecutorConfig config)
    : compiled_(&compiled), config_(config), db_(compiled.domain()),
      dispatches_by_class_(compiled.domain().class_count(), 0),
      ops_by_class_(compiled.domain().class_count(), 0) {
  trace_.set_enabled(config_.trace_enabled);
  obs_ = config_.obs;
  if (obs_ != nullptr) {
    obs_track_ = config_.obs_track.is_valid() ? config_.obs_track
                                              : obs_->track("executor");
  }
}

std::uint64_t Executor::dispatch_count(ClassId cls) const {
  if (cls.value() >= dispatches_by_class_.size()) return 0;
  return dispatches_by_class_[cls.value()];
}

std::uint64_t Executor::ops_executed(ClassId cls) const {
  if (cls.value() >= ops_by_class_.size()) return 0;
  return ops_by_class_[cls.value()];
}

Executor::Executor(const oal::CompiledDomain& compiled, ExecutorConfig config,
                   std::function<bool(ClassId)> is_local,
                   std::function<void(EventMessage)> remote_out)
    : Executor(compiled, config) {
  is_local_ = std::move(is_local);
  remote_out_ = std::move(remote_out);
}

ClassId Executor::class_of(std::string_view name) const {
  ClassId id = domain().find_class_id(name);
  if (!id.is_valid()) {
    throw ModelError("unknown class '" + std::string(name) + "'");
  }
  return id;
}

InstanceHandle Executor::create(ClassId cls) {
  InstanceHandle h = db_.create(cls);
  on_create(h);
  return h;
}

InstanceHandle Executor::create(std::string_view class_name) {
  return create(class_of(class_name));
}

InstanceHandle Executor::create_with(
    std::string_view class_name,
    const std::vector<std::pair<std::string, Value>>& attrs) {
  ClassId cls = class_of(class_name);
  InstanceHandle h = create(cls);
  const xtuml::ClassDef& def = domain().cls(cls);
  for (const auto& [name, value] : attrs) {
    const xtuml::AttributeDef* a = def.find_attribute(name);
    if (a == nullptr) {
      throw ModelError("create_with: class '" + def.name +
                       "' has no attribute '" + name + "'");
    }
    db_.set_attr(h, a->id, value);
  }
  return h;
}

void Executor::destroy(const InstanceHandle& h) {
  on_delete(h);
  db_.destroy(h);
}

void Executor::inject(const InstanceHandle& target, EventId event,
                      std::vector<Value> args, std::uint64_t delay) {
  // Injected values enter the model here, so they are held to the event's
  // declared parameter types, as sema holds generated ones.
  if (const xtuml::EventDef* ev = event_def(domain(), target, event)) {
    if (args.size() != ev->params.size()) {
      throw ModelError("inject: event '" + ev->name + "' takes " +
                       std::to_string(ev->params.size()) +
                       " argument(s), got " + std::to_string(args.size()));
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      const xtuml::Parameter& p = ev->params[i];
      if (!fit_to_type(p.type, args[i])) {
        throw ModelError("inject: parameter '" + p.name + "' of event '" +
                         ev->name + "' is " + xtuml::to_string(p.type) +
                         ", cannot take " + type_name(args[i]) + " " +
                         to_string(args[i]));
      }
    }
  }
  emit(InstanceHandle::null(), target, event, std::move(args), delay);
}

void Executor::inject(const InstanceHandle& target, std::string_view event_name,
                      std::vector<Value> args, std::uint64_t delay) {
  const xtuml::ClassDef& def = domain().cls(target.cls);
  const xtuml::EventDef* ev = def.find_event(event_name);
  if (ev == nullptr) {
    throw ModelError("inject: class '" + def.name + "' has no event '" +
                     std::string(event_name) + "'");
  }
  inject(target, ev->id, std::move(args), delay);
}

void Executor::emit(const InstanceHandle& sender, const InstanceHandle& target,
                    EventId event, std::vector<Value> args,
                    std::uint64_t delay) {
  // An int argument to a real parameter travels as real, as it does when
  // the signal crosses a partition boundary, whichever engine sent it.
  if (const xtuml::EventDef* ev = event_def(domain(), target, event)) {
    for (std::size_t i = 0; i < ev->params.size() && i < args.size(); ++i) {
      if (ev->params[i].type == xtuml::DataType::kReal) {
        fit_to_type(xtuml::DataType::kReal, args[i]);
      }
    }
  }
  EventMessage m;
  m.sender = sender;
  m.target = target;
  m.event = event;
  m.args = std::move(args);
  m.deliver_at = now_ + delay;
  m.seq = seq_++;

  if (trace_.enabled()) {
    TraceEvent te;
    te.kind = TraceKind::kSend;
    te.tick = now_;
    te.subject = target;
    te.peer = sender;
    te.event = event;
    te.args = m.args;
    trace_.record(std::move(te));
  }

  if (is_local_ && !is_local_(target.cls)) {
    if (!remote_out_) {
      throw ModelError("signal to non-local class but no remote route");
    }
    remote_out_(std::move(m));
    return;
  }

  if (delay > 0) {
    timers_.push(std::move(m));
  } else {
    enqueue_ready(std::move(m));
  }
  high_water_ = std::max(
      high_water_, self_queue_.size() + ext_queue_.size() + timers_.size());
}

void Executor::deliver_remote(EventMessage m) {
  // The signal was already traced at the sending side; deliver_at is
  // re-based to local time by the bus model before this call.
  if (m.deliver_at > now_) {
    m.seq = seq_++;
    timers_.push(std::move(m));
  } else {
    enqueue_ready(std::move(m));
  }
}

void Executor::enqueue_ready(EventMessage m) {
  if (config_.policy == QueuePolicy::kXtuml && m.self_directed()) {
    self_queue_.push_back(std::move(m));
  } else {
    ext_queue_.push_back(std::move(m));
  }
}

void Executor::release_due_timers() {
  while (!timers_.empty() && timers_.top().deliver_at <= now_) {
    enqueue_ready(timers_.top());
    timers_.pop();
  }
}

void Executor::advance_time(std::uint64_t ticks) {
  now_ += ticks;
  release_due_timers();
}

std::optional<std::uint64_t> Executor::next_deadline() const {
  if (timers_.empty()) return std::nullopt;
  return timers_.top().deliver_at;
}

bool Executor::idle() const { return self_queue_.empty() && ext_queue_.empty(); }

bool Executor::drained() const { return idle() && timers_.empty(); }

bool Executor::step() {
  release_due_timers();
  EventMessage m;
  if (!self_queue_.empty()) {
    m = std::move(self_queue_.front());
    self_queue_.pop_front();
  } else if (!ext_queue_.empty()) {
    m = std::move(ext_queue_.front());
    ext_queue_.pop_front();
  } else {
    return false;
  }
  dispatch(std::move(m));
  return true;
}

bool Executor::step_if(const std::function<bool(const EventMessage&)>& pred) {
  release_due_timers();
  for (std::deque<EventMessage>* q : {&self_queue_, &ext_queue_}) {
    for (auto it = q->begin(); it != q->end(); ++it) {
      if (pred(*it)) {
        EventMessage m = std::move(*it);
        q->erase(it);
        dispatch(std::move(m));
        return true;
      }
    }
  }
  return false;
}

std::vector<EventMessage> Executor::ready_snapshot() const {
  std::vector<EventMessage> out;
  out.reserve(self_queue_.size() + ext_queue_.size());
  for (const EventMessage& m : self_queue_) out.push_back(m);
  for (const EventMessage& m : ext_queue_) out.push_back(m);
  return out;
}

bool Executor::dispatch_ready(std::size_t index) {
  release_due_timers();
  if (index < self_queue_.size()) {
    EventMessage m = std::move(self_queue_[index]);
    self_queue_.erase(self_queue_.begin() + static_cast<std::ptrdiff_t>(index));
    dispatch(std::move(m));
    return true;
  }
  index -= self_queue_.size();
  if (index < ext_queue_.size()) {
    EventMessage m = std::move(ext_queue_[index]);
    ext_queue_.erase(ext_queue_.begin() + static_cast<std::ptrdiff_t>(index));
    dispatch(std::move(m));
    return true;
  }
  return false;
}

std::size_t Executor::run_to_quiescence(std::size_t max_dispatches) {
  std::size_t n = 0;
  while (n < max_dispatches && step()) ++n;
  return n;
}

std::size_t Executor::run_all(std::size_t max_dispatches) {
  std::size_t n = 0;
  while (n < max_dispatches) {
    n += run_to_quiescence(max_dispatches - n);
    if (timers_.empty()) break;
    // Jump to the next deadline.
    now_ = timers_.top().deliver_at;
    release_due_timers();
  }
  return n;
}

void Executor::dispatch(EventMessage m) {
  // Signals to instances deleted after the send are discarded (xtUML).
  if (!db_.is_alive(m.target)) {
    if (trace_.enabled()) {
      TraceEvent te;
      te.kind = TraceKind::kIgnored;
      te.tick = now_;
      te.subject = m.target;
      te.event = m.event;
      trace_.record(std::move(te));
    }
    recycle_args(std::move(m.args));
    return;
  }

  const xtuml::ClassDef& def = domain().cls(m.target.cls);
  StateId from = db_.current_state(m.target);
  const xtuml::TransitionDef* t = transition_for(def, from, m.event);
  if (t == nullptr) {
    if (def.fallback == xtuml::EventFallback::kCantHappen) {
      throw ModelError("can't-happen: event '" + def.event(m.event).name +
                       "' in state '" + def.state(from).name + "' of " +
                       m.target.to_string());
    }
    if (trace_.enabled()) {
      TraceEvent te;
      te.kind = TraceKind::kIgnored;
      te.tick = now_;
      te.subject = m.target;
      te.event = m.event;
      te.from_state = from;
      trace_.record(std::move(te));
    }
    recycle_args(std::move(m.args));
    return;
  }

  db_.set_state(m.target, t->to);
  ++dispatches_;
  ++dispatches_by_class_[m.target.cls.value()];

  // Span over the whole run-to-completion block (transition + action).
  // The "Class.event" label is only assembled once tracing is known to be
  // on, keeping the disabled path to a pointer test.
  obs::ScopedSpan obs_span;
  if (obs_ != nullptr && obs_->tracing()) {
    obs_span.begin(obs_, obs_track_, def.name + "." + def.event(m.event).name,
                   now_);
  }

  if (trace_.enabled()) {
    TraceEvent te;
    te.kind = TraceKind::kDispatch;
    te.tick = now_;
    te.subject = m.target;
    te.event = m.event;
    te.from_state = from;
    te.to_state = t->to;
    te.args = m.args;
    trace_.record(std::move(te));
  }

  current_ = m.target;
  // The jit runs the actions its module holds; without a module (and
  // under kAstWalk) the walker, the reference, runs them.
  InterpResult r;
  if (config_.engine == ActionEngine::kJit && config_.compiled != nullptr &&
      config_.compiled->has(m.target.cls, t->to)) {
    r = config_.compiled->run(m.target.cls, t->to, m.target, m.args, *this,
                              config_.max_ops_per_action);
  } else {
    r = run_action(compiled_->action(m.target.cls, t->to), m.target, m.args,
                   *this, config_.max_ops_per_action);
  }
  current_ = InstanceHandle::null();
  ops_ += r.ops;
  ops_by_class_[m.target.cls.value()] += r.ops;
  recycle_args(std::move(m.args));

  // Entering a final state deletes the instance after its action completes.
  if (def.state(t->to).is_final && !r.self_deleted &&
      db_.is_alive(m.target)) {
    destroy(m.target);
  }
}

const xtuml::TransitionDef* Executor::transition_for(
    const xtuml::ClassDef& def, StateId from, EventId event) {
  const std::size_t ns = def.states.size();
  const std::size_t ne = def.events.size();
  if (ns == 0 || ne == 0) return def.transition_on(from, event);
  if (transitions_.empty()) transitions_.resize(domain().class_count());
  auto& tab = transitions_[def.id.value()];
  if (tab.empty()) {
    tab.assign(ns * ne, nullptr);
    for (const xtuml::TransitionDef& t : def.transitions) {
      auto& slot = tab[t.from.value() * ne + t.event.value()];
      // First declaration wins, matching transition_on()'s scan order.
      if (slot == nullptr) slot = &t;
    }
  }
  if (from.value() >= ns || event.value() >= ne) return nullptr;
  return tab[from.value() * ne + event.value()];
}

std::vector<Value> Executor::acquire_args(std::size_t n) {
  if (arg_pool_.empty()) return std::vector<Value>(n);
  std::vector<Value> v = std::move(arg_pool_.back());
  arg_pool_.pop_back();
  // Recycled vectors arrive empty, so resize value-initialises every slot
  // (monostate) — indistinguishable from a freshly allocated vector.
  v.resize(n);
  return v;
}

void Executor::recycle_args(std::vector<Value>&& args) {
  if (arg_pool_.size() >= kMaxPooledArgs) return;
  args.clear();
  if (args.capacity() > 0) arg_pool_.push_back(std::move(args));
}

void Executor::on_create(const InstanceHandle& h) {
  if (!trace_.enabled()) return;
  TraceEvent te;
  te.kind = TraceKind::kCreate;
  te.tick = now_;
  te.subject = h;
  trace_.record(std::move(te));
}

void Executor::on_delete(const InstanceHandle& h) {
  if (!trace_.enabled()) return;
  TraceEvent te;
  te.kind = TraceKind::kDelete;
  te.tick = now_;
  te.subject = h;
  trace_.record(std::move(te));
}

void Executor::on_attr_write(const InstanceHandle& h, AttributeId attr,
                             const Value& v) {
  if (!trace_.enabled()) return;
  TraceEvent te;
  te.kind = TraceKind::kAttrWrite;
  te.tick = now_;
  te.subject = h;
  te.attr = attr;
  te.value = v;
  trace_.record(std::move(te));
}

void Executor::on_log(std::string text) {
  if (!trace_.enabled()) return;
  TraceEvent te;
  te.kind = TraceKind::kLog;
  te.tick = now_;
  te.subject = current_;
  te.text = std::move(text);
  trace_.record(std::move(te));
}

template <class Io, class M>
void message_layout(Io& io, M& m) {
  handle_layout(io, m.target);
  io.u32(m.event);
  io.seq(m.args, 1, [&](auto& v) { value_layout(io, v); });
  handle_layout(io, m.sender);
  io.u64(m.deliver_at);
  io.u64(m.seq);
}

template void message_layout(snap::Writer&, const EventMessage&);
template void message_layout(snap::Reader&, EventMessage&);

template <class Io, class Self>
void Executor::layout(Io& io, Self& self) {
  const auto message = [&](auto& m) { message_layout(io, m); };
  io.state(self.db_);
  io.state(self.trace_);
  io.seq(self.self_queue_, kMessageBytes, message);
  io.seq(self.ext_queue_, kMessageBytes, message);
  // The timer heap: copy-and-pop enumerates it in deadline order; reloading
  // by push rebuilds an equivalent heap (pop order is a pure function of
  // the contents), so the byte stream is canonical.
  std::vector<EventMessage> timers;
  if constexpr (!Io::kLoading) {
    for (auto heap = self.timers_; !heap.empty(); heap.pop()) {
      timers.push_back(heap.top());
    }
  }
  io.seq(timers, kMessageBytes, message);
  if constexpr (Io::kLoading) {
    self.timers_ = {};
    for (EventMessage& m : timers) self.timers_.push(std::move(m));
  }
  io.u64(self.now_);
  io.u64(self.seq_);
  io.u64(self.dispatches_);
  for (auto* per_class : {&self.dispatches_by_class_, &self.ops_by_class_}) {
    io.expect(std::uint64_t{per_class->size()},
              "executor snapshot class count mismatch");
    for (auto& n : *per_class) io.u64(n);
  }
  io.u64(self.ops_);
  io.u64(self.high_water_);
  // Flat `mem.*` backing store. Empty (and ignored on load) whenever an
  // external memory port is attached — the port's owner checkpoints it.
  io.map(self.flat_mem_, 8 + 8, [&](auto& addr, auto& value) {
    io.i64(addr);
    io.i64(value);
  });
  if constexpr (Io::kLoading) self.current_ = InstanceHandle::null();
}

void Executor::save_state(snap::Writer& w) const { layout(w, *this); }

void Executor::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::runtime
