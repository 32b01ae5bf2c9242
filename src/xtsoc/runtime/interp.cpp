#include "xtsoc/runtime/interp.hpp"

#include "xtsoc/oal/ast.hpp"

namespace xtsoc::runtime {

namespace {

using namespace oal;

enum class Flow { kNormal, kBreak, kContinue, kReturn };

// --- int arithmetic ------------------------------------------------------------
// Model ints are 64-bit two's complement: + - * / and negation wrap (computed
// through uint64_t, so overflow is defined), INT64_MIN / -1 == INT64_MIN and
// INT64_MIN % -1 == 0. The jit's xj_* helpers follow the same rules.

std::int64_t wrap(std::uint64_t u) { return static_cast<std::int64_t>(u); }
std::uint64_t bits(std::int64_t i) { return static_cast<std::uint64_t>(i); }

std::int64_t int_neg(std::int64_t a) { return wrap(0 - bits(a)); }

std::int64_t int_div(std::int64_t a, std::int64_t c) {
  if (c == 0) throw ModelError("integer division by zero");
  return c == -1 ? int_neg(a) : a / c;
}

std::int64_t int_mod(std::int64_t a, std::int64_t c) {
  if (c == 0) throw ModelError("modulo by zero");
  return c == -1 ? 0 : a % c;
}

// Scalar reads of a stored Value. Sema's types hold at runtime (values are
// fitted to their declared type where they enter), so the first test
// succeeds; the as_* fallback keeps the boxed conversion's exception.
std::int64_t int_of(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  return as_int(v);
}

double real_of(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return as_real(v);
}

bool bool_of(const Value& v) {
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  return as_bool(v);
}

bool is_scalar(const Expr& e, DataType t) {
  return e.type.base == t && !e.type.is_set;
}

/// Action frames are recycled per thread: a dispatch takes a frame from the
/// spare list and returns it cleared, so steady-state dispatching allocates
/// no frame storage. A list (not one frame) keeps nested runs correct.
class FrameLease {
public:
  explicit FrameLease(std::size_t n) {
    if (!spares().empty()) {
      frame_ = std::move(spares().back());
      spares().pop_back();
    }
    frame_.resize(n);
  }
  ~FrameLease() {
    frame_.clear();
    spares().push_back(std::move(frame_));
  }
  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;

  std::vector<Value>& frame() { return frame_; }

private:
  static std::vector<std::vector<Value>>& spares() {
    thread_local std::vector<std::vector<Value>> s;
    return s;
  }
  std::vector<Value> frame_;
};

/// The reference walker. Every expression node is one op, ticked when the
/// node is entered. Scalar-typed nodes (sema's `Expr::type`) evaluate
/// unboxed through eval_int / eval_real / eval_bool; `Value` is built only
/// for strings, instance references and sets, and where a scalar leaves the
/// walker (attribute writes, signal arguments, `log`).
class Interp {
public:
  Interp(const AnalyzedAction& action, const InstanceHandle& self,
         const std::vector<Value>& params, Host& host, std::uint64_t max_ops)
      : action_(action), self_(self), params_(params), host_(host),
        max_ops_(max_ops),
        lease_(static_cast<std::size_t>(action.frame_size)),
        frame_(lease_.frame()) {}

  InterpResult run() {
    exec_block(action_.ast);
    InterpResult r;
    r.ops = ops_;
    r.self_deleted = self_deleted_;
    return r;
  }

private:
  void tick_op() {
    if (++ops_ > max_ops_) {
      throw ModelError("action exceeded op limit (runaway loop?)");
    }
  }

  Value& slot(int i) { return frame_[static_cast<std::size_t>(i)]; }

  // --- leaves, read in place -------------------------------------------------

  const Value& local(const VarRefExpr& v) {
    const Value& val = slot(v.slot);
    if (std::holds_alternative<std::monostate>(val)) {
      throw ModelError("read of unset variable '" + v.name + "'");
    }
    return val;
  }

  const Value& param(const ParamRefExpr& p) {
    return params_.at(static_cast<std::size_t>(p.param_index));
  }

  const Value& attr(const AttrAccessExpr& a) {
    return host_.database().attr_ref(eval_handle(*a.object), a.attr);
  }

  // --- typed expressions -----------------------------------------------------

  // Literal and local leaves are read here, inline at the call site; every
  // other int node goes through int_node.
  std::int64_t eval_int(const Expr& e) {
    tick_op();
    if (e.kind == ExprKind::kLiteral) {
      return std::get<std::int64_t>(static_cast<const LiteralExpr&>(e).value);
    }
    if (e.kind == ExprKind::kVarRef) {
      const auto& v = static_cast<const VarRefExpr&>(e);
      if (const auto* i = std::get_if<std::int64_t>(&slot(v.slot))) return *i;
    }
    return int_node(e);
  }

  /// A real-typed node, or an int-typed one evaluated as int and widened.
  double eval_real(const Expr& e) {
    tick_op();
    return real_node(e);
  }

  bool eval_bool(const Expr& e) {
    tick_op();
    return bool_node(e);
  }

  InstanceHandle eval_handle(const Expr& e) {
    tick_op();
    switch (e.kind) {
      case ExprKind::kSelfRef:
        return self_;
      case ExprKind::kSelectedRef:
        return selected_;
      case ExprKind::kVarRef:
        return as_handle(local(static_cast<const VarRefExpr&>(e)));
      case ExprKind::kParamRef:
        return as_handle(param(static_cast<const ParamRefExpr&>(e)));
      case ExprKind::kAttrAccess:
        return as_handle(attr(static_cast<const AttrAccessExpr&>(e)));
      default:
        return as_handle(boxed_node(e));
    }
  }

  /// Any expression as a Value (one op, like every node).
  Value eval(const Expr& e) {
    tick_op();
    if (!e.type.is_set) {
      switch (e.type.base) {
        case DataType::kInt: return int_node(e);
        case DataType::kReal: return real_node(e);
        case DataType::kBool: return bool_node(e);
        default: break;
      }
    }
    return boxed_node(e);
  }

  /// An instance or set operand; a local is read in place instead of
  /// copied into `tmp`.
  const Value& eval_ref(const Expr& e, Value& tmp) {
    if (e.kind == ExprKind::kVarRef) {
      tick_op();
      return local(static_cast<const VarRefExpr&>(e));
    }
    tmp = eval(e);
    return tmp;
  }

  std::int64_t int_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return std::get<std::int64_t>(static_cast<const LiteralExpr&>(e).value);
      case ExprKind::kVarRef:
        return int_of(local(static_cast<const VarRefExpr&>(e)));
      case ExprKind::kParamRef:
        return int_of(param(static_cast<const ParamRefExpr&>(e)));
      case ExprKind::kAttrAccess:
        return int_of(attr(static_cast<const AttrAccessExpr&>(e)));
      case ExprKind::kUnary:
        return int_neg(eval_int(*static_cast<const UnaryExpr&>(e).operand));
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const std::int64_t a = eval_int(*b.lhs);
        const std::int64_t c = eval_int(*b.rhs);
        switch (b.op) {
          case BinaryOp::kAdd: return wrap(bits(a) + bits(c));
          case BinaryOp::kSub: return wrap(bits(a) - bits(c));
          case BinaryOp::kMul: return wrap(bits(a) * bits(c));
          case BinaryOp::kDiv: return int_div(a, c);
          case BinaryOp::kMod: return int_mod(a, c);
          default: break;
        }
        throw ModelError("unreachable binary op");
      }
      case ExprKind::kCardinality: {
        Value tmp;
        const Value& v =
            eval_ref(*static_cast<const CardinalityExpr&>(e).operand, tmp);
        if (const auto* set = std::get_if<InstanceSet>(&v)) {
          return static_cast<std::int64_t>(set->size());
        }
        return as_handle(v).is_null() ? 0 : 1;
      }
      case ExprKind::kMemRead:
        return host_.mem_read(
            eval_int(*static_cast<const MemReadExpr&>(e).addr));
      default:
        return int_of(boxed_node(e));
    }
  }

  double real_node(const Expr& e) {
    if (e.type.base == DataType::kInt) return static_cast<double>(int_node(e));
    switch (e.kind) {
      case ExprKind::kLiteral:
        return std::get<double>(static_cast<const LiteralExpr&>(e).value);
      case ExprKind::kVarRef:
        return real_of(local(static_cast<const VarRefExpr&>(e)));
      case ExprKind::kParamRef:
        return real_of(param(static_cast<const ParamRefExpr&>(e)));
      case ExprKind::kAttrAccess:
        return real_of(attr(static_cast<const AttrAccessExpr&>(e)));
      case ExprKind::kUnary:
        return -eval_real(*static_cast<const UnaryExpr&>(e).operand);
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const double a = eval_real(*b.lhs);
        const double c = eval_real(*b.rhs);
        switch (b.op) {
          case BinaryOp::kAdd: return a + c;
          case BinaryOp::kSub: return a - c;
          case BinaryOp::kMul: return a * c;
          case BinaryOp::kDiv: return a / c;  // IEEE semantics for real division
          default: break;
        }
        throw ModelError("unreachable binary op");
      }
      default:
        return real_of(boxed_node(e));
    }
  }

  bool bool_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return std::get<bool>(static_cast<const LiteralExpr&>(e).value);
      case ExprKind::kVarRef:
        return bool_of(local(static_cast<const VarRefExpr&>(e)));
      case ExprKind::kParamRef:
        return bool_of(param(static_cast<const ParamRefExpr&>(e)));
      case ExprKind::kAttrAccess:
        return bool_of(attr(static_cast<const AttrAccessExpr&>(e)));
      case ExprKind::kUnary:
        return !eval_bool(*static_cast<const UnaryExpr&>(e).operand);
      case ExprKind::kBinary:
        return bool_binary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kEmpty:
      case ExprKind::kNotEmpty: {
        Value tmp;
        const Value& v =
            eval_ref(*static_cast<const EmptyExpr&>(e).operand, tmp);
        bool empty;
        if (const auto* set = std::get_if<InstanceSet>(&v)) {
          empty = set->empty();
        } else {
          const InstanceHandle& h = as_handle(v);
          empty = h.is_null() || !host_.database().is_alive(h);
        }
        return e.kind == ExprKind::kEmpty ? empty : !empty;
      }
      default:
        return bool_of(boxed_node(e));
    }
  }

  bool bool_binary(const BinaryExpr& b) {
    if (b.op == BinaryOp::kAnd) return eval_bool(*b.lhs) && eval_bool(*b.rhs);
    if (b.op == BinaryOp::kOr) return eval_bool(*b.lhs) || eval_bool(*b.rhs);

    // Operands compare on their static types: int/int exactly as int64,
    // any other numeric pair as real, bools as bools, strings by content,
    // everything else structurally.
    const Expr& l = *b.lhs;
    const Expr& r = *b.rhs;
    int cmp;
    if (is_scalar(l, DataType::kInt) && is_scalar(r, DataType::kInt)) {
      const std::int64_t a = eval_int(l);
      const std::int64_t c = eval_int(r);
      cmp = a < c ? -1 : (a > c ? 1 : 0);
    } else if (l.type.is_numeric() && r.type.is_numeric()) {
      const double a = eval_real(l);
      const double c = eval_real(r);
      if (b.op == BinaryOp::kEq) return a == c;
      if (b.op == BinaryOp::kNe) return a != c;
      cmp = a < c ? -1 : (a > c ? 1 : 0);
    } else if (is_scalar(l, DataType::kBool) && is_scalar(r, DataType::kBool)) {
      const bool a = eval_bool(l);
      const bool c = eval_bool(r);
      cmp = a == c ? 0 : 1;  // only == and != type-check on bools
    } else {
      const Value lv = eval(l);
      const Value rv = eval(r);
      if (b.op == BinaryOp::kEq) return value_equals(lv, rv);
      if (b.op == BinaryOp::kNe) return !value_equals(lv, rv);
      cmp = std::get<std::string>(lv).compare(std::get<std::string>(rv));
    }
    switch (b.op) {
      case BinaryOp::kEq: return cmp == 0;
      case BinaryOp::kNe: return cmp != 0;
      case BinaryOp::kLt: return cmp < 0;
      case BinaryOp::kLe: return cmp <= 0;
      case BinaryOp::kGt: return cmp > 0;
      case BinaryOp::kGe: return cmp >= 0;
      default: throw ModelError("unreachable binary op");
    }
  }

  /// The nodes that are not scalar-typed: strings, instance references and
  /// sets (the op was ticked by the caller).
  Value boxed_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return from_scalar(static_cast<const LiteralExpr&>(e).value);
      case ExprKind::kVarRef:
        return local(static_cast<const VarRefExpr&>(e));
      case ExprKind::kSelfRef:
        return self_;
      case ExprKind::kParamRef:
        return param(static_cast<const ParamRefExpr&>(e));
      case ExprKind::kSelectedRef:
        return selected_;
      case ExprKind::kAttrAccess:
        return attr(static_cast<const AttrAccessExpr&>(e));
      case ExprKind::kBinary: {  // string concatenation
        const auto& b = static_cast<const BinaryExpr&>(e);
        Value lv = eval(*b.lhs);
        Value rv = eval(*b.rhs);
        return std::get<std::string>(lv) + std::get<std::string>(rv);
      }
      default:
        throw ModelError("unreachable expression kind");
    }
  }

  // --- statements ----------------------------------------------------------

  Flow exec_block(const Block& b) {
    for (const auto& s : b.stmts) {
      Flow f = exec_stmt(*s);
      if (f != Flow::kNormal) return f;
    }
    return Flow::kNormal;
  }

  /// Store a scalar into a local, overwriting the slot in place when it
  /// already holds that type.
  template <typename T>
  void store(int i, T v) {
    Value& s = slot(i);
    if (T* p = std::get_if<T>(&s)) {
      *p = v;
    } else {
      s = v;
    }
  }

  Flow exec_stmt(const Stmt& s) {
    tick_op();
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        if (a.lvalue->kind == ExprKind::kVarRef) {
          const auto& var = static_cast<const VarRefExpr&>(*a.lvalue);
          // An int assigned to a real local widens (eval_real).
          if (is_scalar(var, DataType::kInt)) {
            store(var.slot, eval_int(*a.rvalue));
          } else if (is_scalar(var, DataType::kReal)) {
            store(var.slot, eval_real(*a.rvalue));
          } else if (is_scalar(var, DataType::kBool)) {
            store(var.slot, eval_bool(*a.rvalue));
          } else {
            slot(var.slot) = eval(*a.rvalue);
          }
        } else {
          const auto& acc = static_cast<const AttrAccessExpr&>(*a.lvalue);
          Value v = eval(*a.rvalue);
          InstanceHandle obj = eval_handle(*acc.object);
          Database& db = host_.database();
          db.set_attr(obj, acc.attr, std::move(v));
          host_.on_attr_write(obj, acc.attr, db.attr_ref(obj, acc.attr));
        }
        return Flow::kNormal;
      }
      case StmtKind::kCreate: {
        const auto& c = static_cast<const CreateStmt&>(s);
        InstanceHandle h = host_.database().create(c.cls);
        host_.on_create(h);
        slot(c.slot) = h;
        return Flow::kNormal;
      }
      case StmtKind::kDelete: {
        const auto& d = static_cast<const DeleteStmt&>(s);
        InstanceHandle h = eval_handle(*d.object);
        host_.on_delete(h);
        host_.database().destroy(h);
        if (h == self_) self_deleted_ = true;
        return Flow::kNormal;
      }
      case StmtKind::kGenerate: {
        const auto& g = static_cast<const GenerateStmt&>(s);
        InstanceHandle target = eval_handle(*g.target);
        if (target.is_null()) {
          throw ModelError("generate to a null instance reference");
        }
        std::vector<Value> args = host_.acquire_args(g.args.size());
        for (const auto& arg : g.args) {
          args[static_cast<std::size_t>(arg.param_index)] = eval(*arg.value);
        }
        std::uint64_t delay = 0;
        if (g.delay) {
          std::int64_t d = eval_int(*g.delay);
          if (d < 0) throw ModelError("negative delay in generate");
          delay = static_cast<std::uint64_t>(d);
        }
        host_.emit(self_, target, g.event, std::move(args), delay);
        return Flow::kNormal;
      }
      case StmtKind::kSelectFrom: {
        const auto& sel = static_cast<const SelectFromStmt&>(s);
        InstanceSet all = host_.database().all_of(sel.cls);
        store_selection(sel.slot, sel.many, filter(all, sel.where.get()));
        return Flow::kNormal;
      }
      case StmtKind::kSelectRelated: {
        const auto& sel = static_cast<const SelectRelatedStmt&>(s);
        InstanceHandle start = eval_handle(*sel.start);
        InstanceSet rel = host_.database().related(start, sel.assoc);
        store_selection(sel.slot, sel.many, filter(rel, sel.where.get()));
        return Flow::kNormal;
      }
      case StmtKind::kRelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        InstanceHandle a = eval_handle(*r.a);
        InstanceHandle b = eval_handle(*r.b);
        host_.database().relate(a, b, r.assoc);
        return Flow::kNormal;
      }
      case StmtKind::kUnrelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        InstanceHandle a = eval_handle(*r.a);
        InstanceHandle b = eval_handle(*r.b);
        host_.database().unrelate(a, b, r.assoc);
        return Flow::kNormal;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        for (const auto& br : i.branches) {
          if (eval_bool(*br.cond)) return exec_block(br.body);
        }
        if (i.else_body) return exec_block(*i.else_body);
        return Flow::kNormal;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        while (eval_bool(*w.cond)) {
          Flow f = exec_block(w.body);
          if (f == Flow::kBreak) break;
          if (f == Flow::kReturn) return f;
        }
        return Flow::kNormal;
      }
      case StmtKind::kForEach: {
        const auto& fe = static_cast<const ForEachStmt&>(s);
        InstanceSet set = as_set(eval(*fe.set));  // copy: body may mutate DB
        for (const InstanceHandle& h : set) {
          slot(fe.slot) = h;
          Flow f = exec_block(fe.body);
          if (f == Flow::kBreak) break;
          if (f == Flow::kReturn) return f;
        }
        return Flow::kNormal;
      }
      case StmtKind::kBreak:
        return Flow::kBreak;
      case StmtKind::kContinue:
        return Flow::kContinue;
      case StmtKind::kReturn:
        return Flow::kReturn;
      case StmtKind::kLog: {
        const auto& l = static_cast<const LogStmt&>(s);
        std::string text;
        for (std::size_t i = 0; i < l.args.size(); ++i) {
          if (i > 0) text += ' ';
          text += runtime::to_string(eval(*l.args[i]));
        }
        host_.on_log(std::move(text));
        return Flow::kNormal;
      }
      case StmtKind::kMemWrite: {
        const auto& m = static_cast<const MemWriteStmt&>(s);
        std::int64_t a = eval_int(*m.addr);
        std::int64_t v = eval_int(*m.value);
        host_.mem_write(a, v);
        return Flow::kNormal;
      }
    }
    throw ModelError("unreachable statement kind");
  }

  void store_selection(int i, bool many, InstanceSet chosen) {
    if (many) {
      slot(i) = std::move(chosen);
    } else {
      slot(i) = chosen.empty() ? InstanceHandle::null() : chosen.front();
    }
  }

  InstanceSet filter(const InstanceSet& candidates, const Expr* where) {
    if (where == nullptr) return candidates;
    InstanceSet out;
    InstanceHandle saved = selected_;
    for (const InstanceHandle& h : candidates) {
      selected_ = h;
      if (eval_bool(*where)) out.push_back(h);
    }
    selected_ = saved;
    return out;
  }

  const AnalyzedAction& action_;
  InstanceHandle self_;
  const std::vector<Value>& params_;
  Host& host_;
  std::uint64_t max_ops_;
  FrameLease lease_;
  std::vector<Value>& frame_;
  InstanceHandle selected_ = InstanceHandle::null();
  std::uint64_t ops_ = 0;
  bool self_deleted_ = false;
};

}  // namespace

InterpResult run_action(const oal::AnalyzedAction& action,
                        const InstanceHandle& self,
                        const std::vector<Value>& params, Host& host,
                        std::uint64_t max_ops) {
  return Interp(action, self, params, host, max_ops).run();
}

}  // namespace xtsoc::runtime
