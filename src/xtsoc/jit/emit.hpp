// Typed-AST -> C++ lowering for the jit engine.
//
// Each state action's analyzed AST (AnalyzedAction::ast, annotated with
// sema's Expr::type) is translated to one free-standing C++ function over
// the C ABI in abi.h, in the shape of the typed walker (runtime/interp.cpp):
//   * int, real and bool subtrees become plain int64_t / double / int C++
//     expressions, with the walker's int wrap and conversion order;
//   * XjValue and the XjHostOps table remain for strings, instance
//     handles, sets, attribute and parameter reads, and everything else
//     that reaches the host;
//   * if / while / for each / break / continue become structured C++;
//   * a where-filter is an inline loop that binds `selected` (xsel) per
//     candidate, runs the predicate on every candidate, and restores the
//     outer xsel afterwards.
//
// Op-count parity with the walker comes from the AST: one tick per
// statement and per expression node entered, summed per straight-line run
// into one `ops += k` charged at the run's start, so a runaway loop trips
// the limit at worst one run before the walker would (docs/PERF.md).
// Lowering a sema-checked AST cannot fail: every action is emitted.
#pragma once

#include <string>

#include "xtsoc/oal/compiled.hpp"

namespace xtsoc::jit {

/// Generate the complete C++ translation unit for a compiled domain:
/// embedded ABI header, helper prelude, one function per (class, state)
/// action, entry table and exported xtsoc_jit_module(). `digest` is baked
/// into the module for host-side validation. Returns the source text.
std::string emit_module_source(const oal::CompiledDomain& dom,
                               const std::string& digest);

/// The embedded text of abi.h (generated by CMake from the header itself).
extern const char* const kAbiHeaderText;

}  // namespace xtsoc::jit
