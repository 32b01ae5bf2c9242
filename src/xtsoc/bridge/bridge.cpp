#include "xtsoc/bridge/bridge.hpp"

#include <set>
#include <stdexcept>

#include "xtsoc/fault/fault.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::bridge {

using runtime::EventMessage;
using runtime::Executor;
using runtime::InstanceHandle;
using runtime::ModelError;

void SystemDef::add_domain(const oal::CompiledDomain& domain) {
  domains_.push_back(&domain);
}

void SystemDef::add_wire(Wire wire) { wires_.push_back(std::move(wire)); }

const oal::CompiledDomain* SystemDef::find_domain(std::string_view name) const {
  for (const auto* d : domains_) {
    if (d->domain().name() == name) return d;
  }
  return nullptr;
}

bool SystemDef::validate(DiagnosticSink& sink) const {
  const std::size_t before = sink.error_count();
  std::set<std::string> names;
  for (const auto* d : domains_) {
    if (!names.insert(d->domain().name()).second) {
      sink.error("bridge.domain.dup",
                 "duplicate domain '" + d->domain().name() + "'");
    }
  }

  std::set<std::tuple<std::string, std::string, std::string>> sources;
  for (const Wire& w : wires_) {
    const oal::CompiledDomain* from = find_domain(w.from_domain);
    const oal::CompiledDomain* to = find_domain(w.to_domain);
    if (from == nullptr || to == nullptr) {
      sink.error("bridge.wire.domain",
                 "wire references unknown domain '" +
                     (from == nullptr ? w.from_domain : w.to_domain) + "'");
      continue;
    }
    const xtuml::ClassDef* proxy = from->domain().find_class(w.proxy_class);
    const xtuml::ClassDef* target = to->domain().find_class(w.target_class);
    if (proxy == nullptr || target == nullptr) {
      sink.error("bridge.wire.class",
                 "wire references unknown class '" +
                     (proxy == nullptr ? w.proxy_class : w.target_class) + "'");
      continue;
    }
    const xtuml::EventDef* fe = proxy->find_event(w.from_event);
    const xtuml::EventDef* te = target->find_event(w.to_event);
    if (fe == nullptr || te == nullptr) {
      sink.error("bridge.wire.event",
                 "wire references unknown event '" +
                     (fe == nullptr ? w.from_event : w.to_event) + "'");
      continue;
    }
    if (!sources.insert({w.from_domain, w.proxy_class, w.from_event}).second) {
      sink.error("bridge.wire.dup",
                 "two wires forward " + w.from_domain + "." + w.proxy_class +
                     "." + w.from_event);
    }
    if (fe->params.size() != te->params.size()) {
      sink.error("bridge.wire.arity",
                 "wire " + w.proxy_class + "." + w.from_event + " -> " +
                     w.target_class + "." + w.to_event +
                     ": parameter counts differ");
      continue;
    }
    for (std::size_t i = 0; i < fe->params.size(); ++i) {
      xtuml::DataType a = fe->params[i].type;
      xtuml::DataType b = te->params[i].type;
      bool ok = a == b || (a == xtuml::DataType::kInt &&
                           b == xtuml::DataType::kReal);
      if (!ok) {
        sink.error("bridge.wire.type",
                   "wire " + w.proxy_class + "." + w.from_event +
                       ": parameter " + std::to_string(i) + " maps " +
                       xtuml::to_string(a) + " to " + xtuml::to_string(b));
      }
    }
    if (proxy->has_state_machine()) {
      sink.warning("bridge.proxy.states",
                   "proxy class '" + w.proxy_class +
                       "' has a state machine, but every signal sent to a "
                       "proxy leaves its domain and the machine never runs");
    }
  }
  return sink.error_count() == before;
}

SystemExecutor::SystemExecutor(const SystemDef& def,
                               runtime::ExecutorConfig config,
                               fault::Plan* fault)
    : wires_(def.wires()), fault_(fault) {
  DiagnosticSink sink;
  if (!def.validate(sink)) {
    throw std::invalid_argument("invalid system: " + sink.to_string());
  }

  // Collect proxy class ids per domain (any class at the sending end of a
  // wire): signals to them route out of the domain.
  std::map<std::string, std::set<ClassId>> proxies;
  for (const Wire& w : wires_) {
    const oal::CompiledDomain* from = def.find_domain(w.from_domain);
    proxies[w.from_domain].insert(from->domain().find_class_id(w.proxy_class));
  }

  domains_.reserve(def.domains().size());
  for (std::size_t i = 0; i < def.domains().size(); ++i) {
    const oal::CompiledDomain* compiled = def.domains()[i];
    DomainRt d;
    d.name = compiled->domain().name();
    d.compiled = compiled;
    std::set<ClassId> local_proxies = proxies[d.name];
    if (local_proxies.empty()) {
      d.exec = std::make_unique<Executor>(*compiled, config);
    } else {
      d.exec = std::make_unique<Executor>(
          *compiled, config,
          [local_proxies](ClassId cls) { return !local_proxies.contains(cls); },
          [this, i](EventMessage m) {
            if (!route(i, m)) {
              throw ModelError(
                  "signal to proxy instance " + m.target.to_string() +
                  " has no wire for event #" + std::to_string(m.event.value()));
            }
          });
    }
    domains_.push_back(std::move(d));
  }
}

SystemExecutor::DomainRt& SystemExecutor::rt(std::string_view name) {
  for (DomainRt& d : domains_) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("unknown domain '" + std::string(name) + "'");
}

Executor& SystemExecutor::domain(std::string_view name) {
  return *rt(name).exec;
}

void SystemExecutor::bind(const InstanceHandle& proxy,
                          std::string_view proxy_domain,
                          const InstanceHandle& target,
                          std::string_view target_domain) {
  std::size_t from_idx = static_cast<std::size_t>(&rt(proxy_domain) -
                                                  domains_.data());
  std::size_t to_idx = static_cast<std::size_t>(&rt(target_domain) -
                                                domains_.data());
  bindings_[{from_idx, proxy}] = {to_idx, target};
}

bool SystemExecutor::route(std::size_t from_domain, const EventMessage& m) {
  const DomainRt& from = domains_[from_domain];
  const xtuml::ClassDef& proxy_cls = from.compiled->domain().cls(m.target.cls);
  const std::string& from_event = proxy_cls.event(m.event).name;

  for (std::size_t wi = 0; wi < wires_.size(); ++wi) {
    const Wire& w = wires_[wi];
    if (w.from_domain != from.name || w.proxy_class != proxy_cls.name ||
        w.from_event != from_event) {
      continue;
    }
    auto binding = bindings_.find({from_domain, m.target});
    if (binding == bindings_.end()) {
      throw ModelError("proxy instance " + m.target.to_string() + " in '" +
                       from.name + "' is not bound to a target instance");
    }
    auto [to_idx, target] = binding->second;
    const DomainRt& to = domains_[to_idx];
    const xtuml::ClassDef& target_cls =
        to.compiled->domain().cls(target.cls);
    if (target_cls.name != w.target_class) {
      throw ModelError("binding of proxy " + m.target.to_string() +
                       " points at class '" + target_cls.name +
                       "' but the wire targets '" + w.target_class + "'");
    }
    EventMessage out;
    out.target = target;
    out.event = target_cls.find_event(w.to_event)->id;
    out.args = m.args;  // positional, validated at system build
    out.sender = InstanceHandle::null();
    out.deliver_at = 0;  // bridges are immediate; delay does not cross
    PendingForward pf;
    pf.to_domain = to_idx;
    pf.message = std::move(out);
    pf.wire = static_cast<std::uint32_t>(wi);
    pending_.push_back(std::move(pf));
    ++forwarded_;
    return true;
  }
  return false;
}

bool SystemExecutor::drained() const {
  if (!pending_.empty()) return false;
  for (const DomainRt& d : domains_) {
    if (!d.exec->drained()) return false;
  }
  return true;
}

std::size_t SystemExecutor::run_all(std::size_t max_rounds) {
  std::size_t dispatched = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    // Run every domain to quiescence (this fills pending_ via routing).
    for (DomainRt& d : domains_) {
      dispatched += d.exec->run_all();
    }
    if (pending_.empty()) {
      if (drained()) return dispatched;
      continue;
    }
    // Carry bridged signals across, preserving FIFO order. With a fault
    // plan attached each carry can fail; failures reschedule the signal a
    // few rounds out (exponential backoff) until the retry budget runs
    // out, at which point the forward is dropped and counted — the round
    // loop itself always makes progress.
    std::vector<PendingForward> batch;
    batch.swap(pending_);
    for (PendingForward& p : batch) {
      if (p.not_before_round > round) {  // still backing off
        pending_.push_back(std::move(p));
        continue;
      }
      // Rounds are 0-indexed; the window convention is 1-indexed cycles
      // (faultWindow.start is an exclusive lower bound), so shift by one.
      if (fault_ != nullptr &&
          fault_->bridge_error(p.wire, static_cast<std::uint64_t>(round) + 1)) {
        ++p.attempts;
        if (p.attempts > fault_->spec().retry_budget) {
          ++dropped_forwards_;
          continue;
        }
        ++retried_forwards_;
        p.not_before_round = round + (1ULL << p.attempts);
        pending_.push_back(std::move(p));
        continue;
      }
      EventMessage m = std::move(p.message);
      m.deliver_at = domains_[p.to_domain].exec->now();
      domains_[p.to_domain].exec->deliver_remote(std::move(m));
    }
  }
  throw ModelError("multi-domain system did not drain within the round limit");
}

template <class Io, class Self>
void SystemExecutor::layout(Io& io, Self& self) {
  io.expect(std::uint64_t{self.domains_.size()},
            "bridge snapshot domain count mismatch");
  for (auto& d : self.domains_) {
    std::string name = d.name;
    io.str(name);
    if constexpr (Io::kLoading) {
      if (name != d.name) {
        throw snap::SnapError(
            "bridge snapshot domain order mismatch: expected " + d.name +
            ", found " + name);
      }
    }
    io.state(*d.exec);
  }
  io.expect(std::uint64_t{self.bindings_.size()},
            "bridge snapshot binding count mismatch (re-bind the same "
            "proxies before restoring)");
  // A forward is its domain index, a message, its wire and three u64s.
  io.seq(self.pending_, 8 + runtime::kMessageBytes + 4 + 8 + 8,
         [&](auto& p) {
           io.u64(p.to_domain);
           if constexpr (Io::kLoading) {
             if (p.to_domain >= self.domains_.size()) {
               throw snap::SnapError(
                   "bridge snapshot forward targets unknown domain");
             }
           }
           runtime::message_layout(io, p.message);
           io.u32(p.wire);
           io.i64(p.attempts);
           if constexpr (Io::kLoading) {
             // The backoff shifts by the attempt count.
             if (p.attempts < 0 || p.attempts > 63) {
               throw snap::SnapError(
                   "bridge snapshot forward has made " +
                   std::to_string(p.attempts) +
                   " carry attempts, outside [0, 63]");
             }
           }
           io.u64(p.not_before_round);
         });
  io.u64(self.forwarded_);
  io.u64(self.retried_forwards_);
  io.u64(self.dropped_forwards_);
}

void SystemExecutor::save_state(snap::Writer& w) const { layout(w, *this); }

void SystemExecutor::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::bridge
