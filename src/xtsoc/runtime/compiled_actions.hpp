// CompiledActions: the executor-facing face of an AOT-compiled model.
//
// The jit engine (xtsoc::jit) lowers every state action's typed AST to
// C++ and compiles the model into one dlopen'd shared object. The
// Executor neither knows nor cares how: it sees this interface, asks
// whether a (class, state) action was compiled, and runs it against the
// same Host it would hand the tree-walking interpreter. With no module the
// walker runs every action, so the choice of engine is never observable.
//
// Contract (enforced by engines_test and the EnginesJit grid): run() must
// produce exactly the observable behaviour of run_action() on the same
// action — same Host calls in the same order, same error strings, and the
// same op count in InterpResult (op totals feed cosim's sw_ops_per_cycle
// budgeting, so they are trace-visible).
#pragma once

#include <cstdint>
#include <vector>

#include "xtsoc/common/ids.hpp"
#include "xtsoc/runtime/interp.hpp"
#include "xtsoc/runtime/value.hpp"

namespace xtsoc::runtime {

class CompiledActions {
public:
  virtual ~CompiledActions() = default;

  /// True if the action of `cls` entering `state` was compiled.
  virtual bool has(ClassId cls, StateId state) const = 0;

  /// Execute the compiled action. Same semantics as run_action(): throws
  /// ModelError / std::runtime_error on model faults, and counts the
  /// walker's ops in InterpResult::ops.
  virtual InterpResult run(ClassId cls, StateId state,
                           const InstanceHandle& self,
                           const std::vector<Value>& params, Host& host,
                           std::uint64_t max_ops) const = 0;
};

}  // namespace xtsoc::runtime
