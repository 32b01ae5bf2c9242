// Bytecode form of analyzed OAL actions: a compact stack machine.
//
// The bytecode is the jit's input: jit/emit.* lowers each action's
// CodeBlock to C++. It carries the reference semantics of the tree-walking
// interpreter (runtime/interp.*) instruction for instruction — the same
// evaluation order, the same conversions, the same errors — and the
// walker's op count: every instruction records how many of the walker's
// tick_op() points it stands for (`Instr::ticks`), so a run's op total is
// the walker's on every engine. The walker ticks once on entering each
// statement and each expression node; the compiler books that tick on the
// first instruction of the node's code, and puts a zero-width kTick in
// front of a while loop, whose first instruction is the loop head.
//
// Machine model:
//   * value stack of runtime Values;
//   * frame of slots (sema locals first, then compiler temporaries);
//   * `selected` register, set while a where-filter sub-block runs;
//   * where-clauses compile to sub-blocks invoked per candidate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xtsoc/oal/sema.hpp"

namespace xtsoc::oal {

enum class Op : std::uint8_t {
  // stack & frame
  kPushConst,   ///< a = constant-pool index
  kLoadLocal,   ///< a = slot
  kStoreLocal,  ///< a = slot (pops)
  kLoadParam,   ///< a = param index
  kLoadSelf,
  kLoadSelected,
  // attributes (object on stack)
  kGetAttr,     ///< a = attr id; pops object, pushes value
  kSetAttr,     ///< a = attr id; pops value, object
  // arithmetic / comparison / logic (operands popped, result pushed)
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kNot, kNeg,
  kCard,        ///< cardinality of set/handle
  kIsEmpty,     ///< emptiness of set/handle (bool)
  kIndexSet,    ///< pops index, set; pushes set[index]
  kWiden,       ///< int -> real if the top is an int (assign to real slot)
  // control flow
  kJump,         ///< a = target pc
  kJumpIfFalse,  ///< a = target pc (pops condition)
  kReturn,
  // instances & links
  kCreate,     ///< a = class id; pushes new handle
  kDelete,     ///< pops handle
  kRelate,     ///< a = assoc id, b = 1 if operands arrive swapped; pops b, a
  kUnrelate,   ///< a = assoc id; pops b, a
  kSelectAll,  ///< a = class id; pushes the full extent as a set
  kRelated,    ///< a = assoc id; pops start handle, pushes related set
  kFilter,     ///< a = sub-block idx; pops set, pushes filtered set (runs
               ///< sub for every candidate with selected, like the walker)
  kSetToRef,   ///< pops set, pushes first element or null
  // effects
  kNeedTarget, ///< checks the top is a non-null instance (generate target)
  kGenerate,   ///< a = (target class<<16)|event, b = (argc<<1)|has_delay;
               ///< pops [delay], argN..arg1, target
  kLog,        ///< a = argc; pops argc values (last on top)
  // platform memory port (xtsoc::mem via the Host)
  kMemRead,    ///< pops address, pushes loaded value
  kMemWrite,   ///< pops value, address (value on top)
  // op accounting
  kTick,       ///< no effect; carries ticks where no instruction sits
};

struct Instr {
  Op op;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  /// Walker ops this instruction accounts for (see the file comment).
  std::uint32_t ticks = 0;
};

struct CodeBlock {
  std::vector<Instr> code;
  /// Scalar constant pool (instance-handle constants cannot exist in
  /// source, so ScalarValue suffices and keeps oal independent of runtime).
  std::vector<xtuml::ScalarValue> constants;
  std::vector<CodeBlock> subs;   ///< where-filter predicates
  int frame_size = 0;            ///< locals + temporaries
  /// Name of each sema local slot, for the unset-read error text. Only
  /// the top-level block carries it; sub-blocks share its frame.
  std::vector<std::string> local_names;
};

/// Compile an analyzed action to bytecode. The action must have passed
/// sema (all annotations resolved); compilation cannot fail.
CodeBlock compile_bytecode(const AnalyzedAction& action);

/// Disassemble for debugging and golden tests.
std::string disassemble(const CodeBlock& block);

}  // namespace xtsoc::oal
