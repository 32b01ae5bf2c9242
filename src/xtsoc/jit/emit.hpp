// Bytecode -> C++ lowering for the jit engine.
//
// Each state action's CodeBlock (oal::compile_bytecode, which follows the
// tree-walking interpreter's evaluation order and records its op ticks) is
// translated to one free-standing C++ function over the C ABI in abi.h.
// Op-count parity with the walker is structural: every instruction carries
// the walker ticks it stands for, and the generated code adds them up per
// basic block.
//
// Lowering scheme:
//   * static stack-depth analysis assigns every stack slot at depth d a
//     local `sD` (XjValue, registerizable) — no value stack, no variant;
//   * jump targets become labels, kJump/kJumpIfFalse become gotos;
//   * scalar arithmetic/comparison runs inline with the walker's exact
//     conversion order; anything touching the database, strings or sets
//     crosses the XjHostOps table;
//   * where-filter predicates inline recursively with fresh locals, the
//     `selected` register is saved/restored around each loop like the
//     walker's.
//
// An action whose bytecode the analyzer cannot prove well-formed (stack
// depth mismatch at a merge point — impossible for compile_bytecode output
// today, but checked, not assumed) is simply not emitted; the executor
// runs it on the walker, preserving behaviour.
#pragma once

#include <string>

#include "xtsoc/oal/bytecode.hpp"
#include "xtsoc/oal/compiled.hpp"

namespace xtsoc::jit {

/// Generate the complete C++ translation unit for a compiled domain:
/// embedded ABI header, helper prelude, one function per emittable
/// (class, state) action, entry table and exported xtsoc_jit_module().
/// `digest` is baked into the module for host-side validation.
/// Actions that cannot be lowered are left out of the entry table (the
/// executor falls back to the walker per action); *skipped is set to how many
/// were left out. Returns the source text.
std::string emit_module_source(const oal::CompiledDomain& dom,
                               const std::string& digest, int* skipped);

/// The embedded text of abi.h (generated by CMake from the header itself).
extern const char* const kAbiHeaderText;

}  // namespace xtsoc::jit
