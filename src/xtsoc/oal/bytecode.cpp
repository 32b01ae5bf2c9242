#include "xtsoc/oal/bytecode.hpp"

#include <sstream>

#include "xtsoc/oal/ast.hpp"

namespace xtsoc::oal {

namespace {

class Compiler {
public:
  explicit Compiler(const AnalyzedAction& action) : action_(action) {
    block_.frame_size = action.frame_size;
  }

  CodeBlock run() {
    for (const LocalVar& v : action_.locals) {
      block_.local_names.push_back(v.name);
    }
    emit_block(action_.ast);
    emit(Op::kReturn);
    return std::move(block_);
  }

private:
  std::uint32_t emit(Op op, std::uint32_t a = 0, std::uint32_t b = 0) {
    block_.code.push_back({op, a, b});
    return static_cast<std::uint32_t>(block_.code.size() - 1);
  }

  std::uint32_t here() const {
    return static_cast<std::uint32_t>(block_.code.size());
  }

  void patch(std::uint32_t at, std::uint32_t target) {
    block_.code[at].a = target;
  }

  std::uint32_t constant(xtuml::ScalarValue v) {
    for (std::size_t i = 0; i < block_.constants.size(); ++i) {
      if (block_.constants[i] == v) return static_cast<std::uint32_t>(i);
    }
    block_.constants.push_back(std::move(v));
    return static_cast<std::uint32_t>(block_.constants.size() - 1);
  }

  int temp_slot() { return block_.frame_size++; }

  // --- expressions ---------------------------------------------------------

  /// The walker ticks once on entering a node: book it on the node's first
  /// instruction, which runs exactly once per evaluation of the node.
  void emit_expr(const Expr& e) {
    const std::uint32_t first = here();
    emit_expr_code(e);
    if (first < here()) block_.code[first].ticks += 1;
  }

  void emit_expr_code(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        emit(Op::kPushConst,
             constant(static_cast<const LiteralExpr&>(e).value));
        break;
      case ExprKind::kVarRef:
        emit(Op::kLoadLocal,
             static_cast<std::uint32_t>(
                 static_cast<const VarRefExpr&>(e).slot));
        break;
      case ExprKind::kSelfRef:
        emit(Op::kLoadSelf);
        break;
      case ExprKind::kSelectedRef:
        emit(Op::kLoadSelected);
        break;
      case ExprKind::kParamRef:
        emit(Op::kLoadParam,
             static_cast<std::uint32_t>(
                 static_cast<const ParamRefExpr&>(e).param_index));
        break;
      case ExprKind::kAttrAccess: {
        const auto& a = static_cast<const AttrAccessExpr&>(e);
        emit_expr(*a.object);
        emit(Op::kGetAttr, a.attr.value());
        break;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        emit_expr(*u.operand);
        emit(u.op == UnaryOp::kNeg ? Op::kNeg : Op::kNot);
        break;
      }
      case ExprKind::kBinary:
        emit_binary(static_cast<const BinaryExpr&>(e));
        break;
      case ExprKind::kCardinality:
        emit_expr(*static_cast<const CardinalityExpr&>(e).operand);
        emit(Op::kCard);
        break;
      case ExprKind::kEmpty:
        emit_expr(*static_cast<const EmptyExpr&>(e).operand);
        emit(Op::kIsEmpty);
        break;
      case ExprKind::kNotEmpty:
        emit_expr(*static_cast<const EmptyExpr&>(e).operand);
        emit(Op::kIsEmpty);
        emit(Op::kNot);
        break;
      case ExprKind::kMemRead:
        emit_expr(*static_cast<const MemReadExpr&>(e).addr);
        emit(Op::kMemRead);
        break;
    }
  }

  void emit_binary(const BinaryExpr& b) {
    // Short-circuit logic via jumps (same observable behaviour as interp).
    if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
      emit_expr(*b.lhs);
      if (b.op == BinaryOp::kAnd) {
        // lhs false -> push false; else evaluate rhs
        std::uint32_t jf = emit(Op::kJumpIfFalse);
        emit_expr(*b.rhs);
        std::uint32_t jend = emit(Op::kJump);
        patch(jf, here());
        emit(Op::kPushConst, constant(xtuml::ScalarValue(false)));
        patch(jend, here());
      } else {
        emit(Op::kNot);
        std::uint32_t jf = emit(Op::kJumpIfFalse);  // lhs was true
        emit_expr(*b.rhs);
        std::uint32_t jend = emit(Op::kJump);
        patch(jf, here());
        emit(Op::kPushConst, constant(xtuml::ScalarValue(true)));
        patch(jend, here());
      }
      return;
    }
    emit_expr(*b.lhs);
    emit_expr(*b.rhs);
    switch (b.op) {
      case BinaryOp::kAdd: emit(Op::kAdd); break;
      case BinaryOp::kSub: emit(Op::kSub); break;
      case BinaryOp::kMul: emit(Op::kMul); break;
      case BinaryOp::kDiv: emit(Op::kDiv); break;
      case BinaryOp::kMod: emit(Op::kMod); break;
      case BinaryOp::kEq: emit(Op::kEq); break;
      case BinaryOp::kNe: emit(Op::kNe); break;
      case BinaryOp::kLt: emit(Op::kLt); break;
      case BinaryOp::kLe: emit(Op::kLe); break;
      case BinaryOp::kGt: emit(Op::kGt); break;
      case BinaryOp::kGe: emit(Op::kGe); break;
      default: break;
    }
  }

  // --- statements ----------------------------------------------------------

  struct LoopCtx {
    std::vector<std::uint32_t> break_jumps;
    std::uint32_t continue_target = 0;
    bool continue_known = false;
    std::vector<std::uint32_t> continue_jumps;
  };

  void emit_block(const Block& b) {
    for (const auto& s : b.stmts) emit_stmt(*s);
  }

  /// As emit_expr: the statement's tick goes on its first instruction. A
  /// while loop starts with a kTick, because its first real instruction is
  /// the loop head, which runs once per iteration.
  void emit_stmt(const Stmt& s) {
    const std::uint32_t first = here();
    emit_stmt_code(s);
    if (first < here()) block_.code[first].ticks += 1;
  }

  void emit_stmt_code(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        emit_expr(*a.rvalue);
        if (a.lvalue->kind == ExprKind::kVarRef) {
          const auto& v = static_cast<const VarRefExpr&>(*a.lvalue);
          if (v.type.base == xtuml::DataType::kReal) emit(Op::kWiden);
          emit(Op::kStoreLocal, static_cast<std::uint32_t>(v.slot));
        } else {
          const auto& acc = static_cast<const AttrAccessExpr&>(*a.lvalue);
          emit_expr(*acc.object);
          emit(Op::kSetAttr, acc.attr.value());
        }
        break;
      }
      case StmtKind::kCreate: {
        const auto& c = static_cast<const CreateStmt&>(s);
        emit(Op::kCreate, c.cls.value());
        emit(Op::kStoreLocal, static_cast<std::uint32_t>(c.slot));
        break;
      }
      case StmtKind::kDelete:
        emit_expr(*static_cast<const DeleteStmt&>(s).object);
        emit(Op::kDelete);
        break;
      case StmtKind::kGenerate: {
        // Walker order: the target (checked at once), the arguments in
        // source order, then the delay. kGenerate takes the arguments in
        // parameter order, so out-of-order ones go through temporaries.
        const auto& g = static_cast<const GenerateStmt&>(s);
        emit_expr(*g.target);
        emit(Op::kNeedTarget);
        bool in_order = true;
        for (std::size_t k = 0; k < g.args.size(); ++k) {
          if (g.args[k].param_index != static_cast<int>(k)) in_order = false;
        }
        if (in_order) {
          for (const auto& a : g.args) emit_expr(*a.value);
        } else {
          std::vector<std::uint32_t> temps(g.args.size());
          for (const auto& a : g.args) {
            const auto t = static_cast<std::uint32_t>(temp_slot());
            temps[static_cast<std::size_t>(a.param_index)] = t;
            emit_expr(*a.value);
            emit(Op::kStoreLocal, t);
          }
          for (std::uint32_t t : temps) emit(Op::kLoadLocal, t);
        }
        if (g.delay) emit_expr(*g.delay);
        emit(Op::kGenerate,
             (g.target_class.value() << 16) | g.event.value(),
             (static_cast<std::uint32_t>(g.args.size()) << 1) |
                 (g.delay ? 1u : 0u));
        break;
      }
      case StmtKind::kSelectFrom: {
        const auto& sel = static_cast<const SelectFromStmt&>(s);
        emit(Op::kSelectAll, sel.cls.value());
        emit_filter_and_store(sel.where.get(), sel.many, sel.slot);
        break;
      }
      case StmtKind::kSelectRelated: {
        const auto& sel = static_cast<const SelectRelatedStmt&>(s);
        emit_expr(*sel.start);
        emit(Op::kRelated, sel.assoc.value());
        emit_filter_and_store(sel.where.get(), sel.many, sel.slot);
        break;
      }
      case StmtKind::kRelate:
      case StmtKind::kUnrelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        emit_expr(*r.a);
        emit_expr(*r.b);
        emit(s.kind == StmtKind::kRelate ? Op::kRelate : Op::kUnrelate,
             r.assoc.value());
        break;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        std::vector<std::uint32_t> end_jumps;
        for (const auto& br : i.branches) {
          emit_expr(*br.cond);
          std::uint32_t jf = emit(Op::kJumpIfFalse);
          emit_block(br.body);
          end_jumps.push_back(emit(Op::kJump));
          patch(jf, here());
        }
        if (i.else_body) emit_block(*i.else_body);
        for (std::uint32_t j : end_jumps) patch(j, here());
        break;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        emit(Op::kTick);
        loops_.push_back({});
        loops_.back().continue_target = here();
        loops_.back().continue_known = true;
        std::uint32_t top = here();
        emit_expr(*w.cond);
        std::uint32_t jf = emit(Op::kJumpIfFalse);
        emit_block(w.body);
        emit(Op::kJump, top);
        patch(jf, here());
        for (std::uint32_t j : loops_.back().break_jumps) patch(j, here());
        loops_.pop_back();
        break;
      }
      case StmtKind::kForEach:
        emit_foreach(static_cast<const ForEachStmt&>(s));
        break;
      case StmtKind::kBreak:
        if (!loops_.empty()) {
          loops_.back().break_jumps.push_back(emit(Op::kJump));
        }
        break;
      case StmtKind::kContinue:
        if (!loops_.empty()) {
          LoopCtx& l = loops_.back();
          if (l.continue_known) {
            emit(Op::kJump, l.continue_target);
          } else {
            l.continue_jumps.push_back(emit(Op::kJump));
          }
        }
        break;
      case StmtKind::kReturn:
        emit(Op::kReturn);
        break;
      case StmtKind::kLog: {
        const auto& l = static_cast<const LogStmt&>(s);
        for (const auto& a : l.args) emit_expr(*a);
        emit(Op::kLog, static_cast<std::uint32_t>(l.args.size()));
        break;
      }
      case StmtKind::kMemWrite: {
        const auto& m = static_cast<const MemWriteStmt&>(s);
        emit_expr(*m.addr);
        emit_expr(*m.value);
        emit(Op::kMemWrite);
        break;
      }
    }
  }

  /// Top of stack holds a candidate set; apply optional where, then store
  /// (many: the set; any/one: first element or null).
  void emit_filter_and_store(const Expr* where, bool many, int slot) {
    if (where != nullptr) {
      CodeBlock sub;
      {
        Compiler sc(action_);
        sc.block_.frame_size = 0;  // predicates use no locals of their own
        sc.emit_expr(*where);
        sc.emit(Op::kReturn);
        sub = std::move(sc.block_);
      }
      block_.subs.push_back(std::move(sub));
      emit(Op::kFilter, static_cast<std::uint32_t>(block_.subs.size() - 1));
    }
    if (!many) emit(Op::kSetToRef);
    emit(Op::kStoreLocal, static_cast<std::uint32_t>(slot));
  }

  void emit_foreach(const ForEachStmt& f) {
    int set_slot = temp_slot();
    int idx_slot = temp_slot();

    emit_expr(*f.set);
    emit(Op::kStoreLocal, static_cast<std::uint32_t>(set_slot));
    emit(Op::kPushConst, constant(xtuml::ScalarValue(std::int64_t{0})));
    emit(Op::kStoreLocal, static_cast<std::uint32_t>(idx_slot));

    loops_.push_back({});
    loops_.back().continue_known = false;  // continue jumps to the increment

    std::uint32_t top = here();
    emit(Op::kLoadLocal, static_cast<std::uint32_t>(idx_slot));
    emit(Op::kLoadLocal, static_cast<std::uint32_t>(set_slot));
    emit(Op::kCard);
    emit(Op::kLt);
    std::uint32_t jf = emit(Op::kJumpIfFalse);

    emit(Op::kLoadLocal, static_cast<std::uint32_t>(set_slot));
    emit(Op::kLoadLocal, static_cast<std::uint32_t>(idx_slot));
    emit(Op::kIndexSet);
    emit(Op::kStoreLocal, static_cast<std::uint32_t>(f.slot));

    emit_block(f.body);

    // increment (continue target)
    std::uint32_t inc = here();
    for (std::uint32_t j : loops_.back().continue_jumps) patch(j, inc);
    emit(Op::kLoadLocal, static_cast<std::uint32_t>(idx_slot));
    emit(Op::kPushConst, constant(xtuml::ScalarValue(std::int64_t{1})));
    emit(Op::kAdd);
    emit(Op::kStoreLocal, static_cast<std::uint32_t>(idx_slot));
    emit(Op::kJump, top);

    patch(jf, here());
    for (std::uint32_t j : loops_.back().break_jumps) patch(j, here());
    loops_.pop_back();
  }

  const AnalyzedAction& action_;
  CodeBlock block_;
  std::vector<LoopCtx> loops_;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kPushConst: return "push_const";
    case Op::kLoadLocal: return "load";
    case Op::kStoreLocal: return "store";
    case Op::kLoadParam: return "param";
    case Op::kLoadSelf: return "self";
    case Op::kLoadSelected: return "selected";
    case Op::kGetAttr: return "get_attr";
    case Op::kSetAttr: return "set_attr";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kNot: return "not";
    case Op::kNeg: return "neg";
    case Op::kCard: return "card";
    case Op::kIsEmpty: return "is_empty";
    case Op::kIndexSet: return "index";
    case Op::kWiden: return "widen";
    case Op::kJump: return "jmp";
    case Op::kJumpIfFalse: return "jmp_false";
    case Op::kReturn: return "ret";
    case Op::kCreate: return "create";
    case Op::kDelete: return "delete";
    case Op::kRelate: return "relate";
    case Op::kUnrelate: return "unrelate";
    case Op::kSelectAll: return "select_all";
    case Op::kRelated: return "related";
    case Op::kFilter: return "filter";
    case Op::kSetToRef: return "set_to_ref";
    case Op::kNeedTarget: return "need_target";
    case Op::kGenerate: return "generate";
    case Op::kLog: return "log";
    case Op::kMemRead: return "mem_read";
    case Op::kMemWrite: return "mem_write";
    case Op::kTick: return "tick";
  }
  return "?";
}

}  // namespace

CodeBlock compile_bytecode(const AnalyzedAction& action) {
  return Compiler(action).run();
}

std::string disassemble(const CodeBlock& block) {
  std::ostringstream os;
  for (std::size_t pc = 0; pc < block.code.size(); ++pc) {
    const Instr& i = block.code[pc];
    os << pc << ": " << op_name(i.op);
    if (i.op == Op::kPushConst && i.a < block.constants.size()) {
      os << ' ' << xtuml::scalar_to_string(block.constants[i.a]);
    } else if (i.a != 0 || i.b != 0) {
      os << ' ' << i.a;
      if (i.b != 0) os << ", " << i.b;
    }
    if (i.ticks != 0) os << "  ; ops " << i.ticks;
    os << '\n';
  }
  for (std::size_t s = 0; s < block.subs.size(); ++s) {
    os << "sub " << s << ":\n" << disassemble(block.subs[s]);
  }
  return os.str();
}

}  // namespace xtsoc::oal
