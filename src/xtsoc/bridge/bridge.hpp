// Multi-domain systems and bridges.
//
// A real system is several domains — application, device drivers, UI —
// each modelled independently and joined by bridges (the "integration
// problem" of the paper's reference [2], MDA Distilled). The executable
// bridge mechanism here follows xtUML practice:
//
//   * a domain that needs a service models a PROXY class for it (an
//     ordinary class, often stateless, standing in for the other domain);
//   * a Wire declares that signals of a given event received by proxy
//     instances are forwarded into another domain as a different event,
//     parameters mapped positionally (types checked at system build time);
//   * each proxy INSTANCE is bound to a counterpart instance in the target
//     domain, so routing is per-object, not per-class.
//
// SystemExecutor runs one runtime::Executor per domain and carries
// forwarded signals across, preserving run-to-completion within each
// domain and FIFO order per wire.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xtsoc/common/diagnostics.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::fault {
class Plan;
}

namespace xtsoc::bridge {

/// A directed event forwarding rule between two domains.
struct Wire {
  std::string from_domain;
  std::string proxy_class;  ///< class in from_domain receiving the signal
  std::string from_event;
  std::string to_domain;
  std::string target_class;  ///< class in to_domain
  std::string to_event;
};

/// A multi-domain system: named compiled domains plus wires.
class SystemDef {
public:
  /// Register a domain under its model name. The CompiledDomain must
  /// outlive the SystemDef.
  void add_domain(const oal::CompiledDomain& domain);
  void add_wire(Wire wire);

  const oal::CompiledDomain* find_domain(std::string_view name) const;
  const std::vector<const oal::CompiledDomain*>& domains() const {
    return domains_;
  }
  const std::vector<Wire>& wires() const { return wires_; }
  std::size_t domain_count() const { return domains_.size(); }

  /// Check every wire: domains exist, classes and events exist, and the
  /// parameter signatures are positionally compatible (same count; same
  /// types, with int-to-real widening allowed).
  bool validate(DiagnosticSink& sink) const;

private:
  std::vector<const oal::CompiledDomain*> domains_;
  std::vector<Wire> wires_;
};

/// Executes a validated multi-domain system.
class SystemExecutor {
public:
  /// Throws std::invalid_argument if `def` does not validate. An optional
  /// fault plan (src/xtsoc/fault) makes each carry attempt fallible at the
  /// plan's busError rate; a failed carry is retried on a later round with
  /// exponential backoff until the plan's retry budget runs out, then
  /// counted in dropped_forward_count() — delivery degrades, run_all never
  /// wedges.
  explicit SystemExecutor(const SystemDef& def,
                          runtime::ExecutorConfig config = {},
                          fault::Plan* fault = nullptr);

  runtime::Executor& domain(std::string_view name);

  /// Pair a proxy instance with its counterpart in the target domain.
  /// Every wired signal the proxy receives is forwarded to `target`.
  void bind(const runtime::InstanceHandle& proxy,
            std::string_view proxy_domain,
            const runtime::InstanceHandle& target,
            std::string_view target_domain);

  /// Run every domain to quiescence, carrying bridged signals across,
  /// until the whole system is drained. Returns total dispatches.
  std::size_t run_all(std::size_t max_rounds = 10'000);

  bool drained() const;
  std::uint64_t forwarded_count() const { return forwarded_; }
  /// Carries that failed once and were rescheduled with backoff.
  std::uint64_t retried_forward_count() const { return retried_forwards_; }
  /// Carries abandoned after the retry budget — the bridge's reported,
  /// bounded failure mode.
  std::uint64_t dropped_forward_count() const { return dropped_forwards_; }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize every domain executor, the in-flight forwards and the bridge
  /// counters. Wires, bindings and the attached fault plan are
  /// elaboration-owned; the binding count is checked on load.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct DomainRt {
    std::string name;
    const oal::CompiledDomain* compiled;
    std::unique_ptr<runtime::Executor> exec;
  };
  struct PendingForward {
    std::size_t to_domain;
    runtime::EventMessage message;
    std::uint32_t wire = 0;              ///< index into wires_ (fault site)
    int attempts = 0;                    ///< failed carry attempts so far
    std::size_t not_before_round = 0;    ///< backoff: earliest retry round
  };

  DomainRt& rt(std::string_view name);
  /// Route a signal emitted to a proxy instance, or return false if the
  /// (instance, event) pair has no wire (the signal stays local).
  bool route(std::size_t from_domain, const runtime::EventMessage& m);

  std::vector<DomainRt> domains_;
  std::vector<Wire> wires_;
  /// (domain idx, proxy handle) -> (target domain idx, target handle)
  std::map<std::pair<std::size_t, runtime::InstanceHandle>,
           std::pair<std::size_t, runtime::InstanceHandle>> bindings_;
  std::vector<PendingForward> pending_;
  std::uint64_t forwarded_ = 0;
  fault::Plan* fault_ = nullptr;
  std::uint64_t retried_forwards_ = 0;
  std::uint64_t dropped_forwards_ = 0;
};

}  // namespace xtsoc::bridge
