// Tree-walking interpreter for analyzed OAL action bodies.
//
// The interpreter is deliberately host-agnostic: everything with a side
// effect outside the action frame (instance lifecycle, signal generation,
// logging) goes through the Host interface. The abstract Executor, the
// software-runtime task and the hardware FSM process all implement Host, so
// a single action semantics serves every mapping — which is exactly the
// property the paper's "model compiler preserves defined behavior" argument
// depends on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "xtsoc/oal/sema.hpp"
#include "xtsoc/runtime/database.hpp"
#include "xtsoc/runtime/value.hpp"

namespace xtsoc::runtime {

/// Services an action body needs from its execution environment.
class Host {
public:
  virtual ~Host() = default;

  virtual Database& database() = 0;
  virtual std::uint64_t now() const = 0;

  /// Queue a signal. `delay` is in logical ticks (0 = as soon as possible,
  /// after already-queued events, per run-to-completion).
  virtual void emit(const InstanceHandle& sender, const InstanceHandle& target,
                    EventId event, std::vector<Value> args,
                    std::uint64_t delay) = 0;

  /// Obtain a payload vector of `n` default (monostate) Values for emit().
  /// Hosts that dispatch signals in a loop override this to recycle the
  /// consumed vectors' storage, so steady-state signalling allocates
  /// nothing; the default just allocates.
  virtual std::vector<Value> acquire_args(std::size_t n) {
    return std::vector<Value>(n);
  }

  /// Lifecycle + observability hooks (default: no-op).
  virtual void on_create(const InstanceHandle&) {}
  virtual void on_delete(const InstanceHandle&) {}
  virtual void on_attr_write(const InstanceHandle&, AttributeId,
                             const Value&) {}
  virtual void on_log(std::string /*text*/) {}

  /// Platform memory port (`mem.read` / `mem.write`). The default is a
  /// degenerate memory where every load returns 0 and stores vanish — hosts
  /// with a real model (the Executor's flat map, the xtsoc::mem hierarchy)
  /// override.
  virtual std::int64_t mem_read(std::int64_t /*addr*/) { return 0; }
  virtual void mem_write(std::int64_t /*addr*/, std::int64_t /*value*/) {}
};

/// Interpreter statistics for one action run.
struct InterpResult {
  std::uint64_t ops = 0;          ///< AST nodes executed (every engine's unit)
  bool self_deleted = false;      ///< the action deleted `self`
};

/// Execute `action` for instance `self` with event payload `params`.
/// Throws ModelError on model-level faults (null deref, div by zero, ...)
/// and when more than `max_ops` AST nodes execute (runaway-loop guard).
InterpResult run_action(const oal::AnalyzedAction& action,
                        const InstanceHandle& self,
                        const std::vector<Value>& params, Host& host,
                        std::uint64_t max_ops = 10'000'000);

}  // namespace xtsoc::runtime
