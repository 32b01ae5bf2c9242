#include "xtsoc/runtime/interp.hpp"

#include <cmath>

#include "xtsoc/oal/ast.hpp"

namespace xtsoc::runtime {

namespace {

using namespace oal;

enum class Flow { kNormal, kBreak, kContinue, kReturn };

class Interp {
public:
  Interp(const AnalyzedAction& action, const InstanceHandle& self,
         const std::vector<Value>& params, Host& host, std::uint64_t max_ops)
      : action_(action), self_(self), params_(params), host_(host),
        max_ops_(max_ops) {
    frame_.resize(static_cast<std::size_t>(action.frame_size));
  }

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

  Value& slot(int i) { return frame_.at(static_cast<std::size_t>(i)); }

  // --- expressions ---------------------------------------------------------

  Value eval(const Expr& e) {
    tick_op();
    switch (e.kind) {
      case ExprKind::kLiteral:
        return from_scalar(static_cast<const LiteralExpr&>(e).value);
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        Value& val = slot(v.slot);
        if (std::holds_alternative<std::monostate>(val)) {
          throw ModelError("read of unset variable '" + v.name + "'");
        }
        return val;
      }
      case ExprKind::kSelfRef:
        return self_;
      case ExprKind::kParamRef: {
        const auto& p = static_cast<const ParamRefExpr&>(e);
        return params_.at(static_cast<std::size_t>(p.param_index));
      }
      case ExprKind::kSelectedRef:
        return selected_;
      case ExprKind::kAttrAccess: {
        const auto& a = static_cast<const AttrAccessExpr&>(e);
        InstanceHandle obj = as_handle(eval(*a.object));
        return host_.database().get_attr(obj, a.attr);
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        Value v = eval(*u.operand);
        if (u.op == UnaryOp::kNot) return !as_bool(v);
        if (std::holds_alternative<std::int64_t>(v)) {
          return -std::get<std::int64_t>(v);
        }
        return -as_real(v);
      }
      case ExprKind::kBinary:
        return eval_binary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kCardinality: {
        const auto& c = static_cast<const CardinalityExpr&>(e);
        Value v = eval(*c.operand);
        if (const auto* set = std::get_if<InstanceSet>(&v)) {
          return static_cast<std::int64_t>(set->size());
        }
        return std::int64_t{as_handle(v).is_null() ? 0 : 1};
      }
      case ExprKind::kEmpty:
      case ExprKind::kNotEmpty: {
        const auto& em = static_cast<const EmptyExpr&>(e);
        Value v = eval(*em.operand);
        bool empty;
        if (const auto* set = std::get_if<InstanceSet>(&v)) {
          empty = set->empty();
        } else {
          const InstanceHandle& h = as_handle(v);
          empty = h.is_null() || !host_.database().is_alive(h);
        }
        return e.kind == ExprKind::kEmpty ? empty : !empty;
      }
      case ExprKind::kMemRead: {
        const auto& m = static_cast<const MemReadExpr&>(e);
        Value a = eval(*m.addr);
        return host_.mem_read(as_int(a));
      }
    }
    throw ModelError("unreachable expression kind");
  }

  Value eval_binary(const BinaryExpr& b) {
    // Short-circuit logic first.
    if (b.op == BinaryOp::kAnd) {
      return as_bool(eval(*b.lhs)) ? Value(as_bool(eval(*b.rhs))) : Value(false);
    }
    if (b.op == BinaryOp::kOr) {
      return as_bool(eval(*b.lhs)) ? Value(true) : Value(as_bool(eval(*b.rhs)));
    }

    Value lv = eval(*b.lhs);
    Value rv = eval(*b.rhs);

    switch (b.op) {
      case BinaryOp::kAdd:
        if (std::holds_alternative<std::string>(lv)) {
          return std::get<std::string>(lv) + std::get<std::string>(rv);
        }
        [[fallthrough]];
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        const bool both_int = std::holds_alternative<std::int64_t>(lv) &&
                              std::holds_alternative<std::int64_t>(rv);
        if (both_int) {
          std::int64_t a = std::get<std::int64_t>(lv);
          std::int64_t c = std::get<std::int64_t>(rv);
          switch (b.op) {
            case BinaryOp::kAdd: return a + c;
            case BinaryOp::kSub: return a - c;
            case BinaryOp::kMul: return a * c;
            default:
              if (c == 0) throw ModelError("integer division by zero");
              return a / c;
          }
        }
        double a = as_real(lv);
        double c = as_real(rv);
        switch (b.op) {
          case BinaryOp::kAdd: return a + c;
          case BinaryOp::kSub: return a - c;
          case BinaryOp::kMul: return a * c;
          default: return a / c;  // IEEE semantics for real division
        }
      }
      case BinaryOp::kMod: {
        std::int64_t a = as_int(lv);
        std::int64_t c = as_int(rv);
        if (c == 0) throw ModelError("modulo by zero");
        return a % c;
      }
      case BinaryOp::kEq:
        return value_equals(lv, rv);
      case BinaryOp::kNe:
        return !value_equals(lv, rv);
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        // int/int orders exactly as int64; any other numeric pair as real.
        int cmp;
        const auto* li = std::get_if<std::int64_t>(&lv);
        const auto* ri = std::get_if<std::int64_t>(&rv);
        if (li != nullptr && ri != nullptr) {
          cmp = *li < *ri ? -1 : (*li > *ri ? 1 : 0);
        } else if (std::holds_alternative<std::string>(lv)) {
          cmp = std::get<std::string>(lv).compare(std::get<std::string>(rv));
        } else {
          double a = as_real(lv);
          double c = as_real(rv);
          cmp = a < c ? -1 : (a > c ? 1 : 0);
        }
        switch (b.op) {
          case BinaryOp::kLt: return cmp < 0;
          case BinaryOp::kLe: return cmp <= 0;
          case BinaryOp::kGt: return cmp > 0;
          default: return cmp >= 0;
        }
      }
      default:
        throw ModelError("unreachable binary op");
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

  Flow exec_stmt(const Stmt& s) {
    tick_op();
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        Value v = eval(*a.rvalue);
        if (a.lvalue->kind == ExprKind::kVarRef) {
          const auto& var = static_cast<const VarRefExpr&>(*a.lvalue);
          // int widens to real if the variable's declared type is real
          if (var.type.base == xtuml::DataType::kReal &&
              std::holds_alternative<std::int64_t>(v)) {
            v = static_cast<double>(std::get<std::int64_t>(v));
          }
          slot(var.slot) = std::move(v);
        } else {
          const auto& acc = static_cast<const AttrAccessExpr&>(*a.lvalue);
          InstanceHandle obj = as_handle(eval(*acc.object));
          host_.database().set_attr(obj, acc.attr, v);
          host_.on_attr_write(obj, acc.attr,
                              host_.database().get_attr(obj, acc.attr));
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
        InstanceHandle h = as_handle(eval(*d.object));
        host_.on_delete(h);
        host_.database().destroy(h);
        if (h == self_) self_deleted_ = true;
        return Flow::kNormal;
      }
      case StmtKind::kGenerate: {
        const auto& g = static_cast<const GenerateStmt&>(s);
        InstanceHandle target = as_handle(eval(*g.target));
        if (target.is_null()) {
          throw ModelError("generate to a null instance reference");
        }
        std::vector<Value> args = host_.acquire_args(g.args.size());
        for (const auto& arg : g.args) {
          args[static_cast<std::size_t>(arg.param_index)] = eval(*arg.value);
        }
        std::uint64_t delay = 0;
        if (g.delay) {
          std::int64_t d = as_int(eval(*g.delay));
          if (d < 0) throw ModelError("negative delay in generate");
          delay = static_cast<std::uint64_t>(d);
        }
        host_.emit(self_, target, g.event, std::move(args), delay);
        return Flow::kNormal;
      }
      case StmtKind::kSelectFrom: {
        const auto& sel = static_cast<const SelectFromStmt&>(s);
        InstanceSet all = host_.database().all_of(sel.cls);
        InstanceSet chosen = filter(all, sel.where.get());
        if (sel.many) {
          slot(sel.slot) = std::move(chosen);
        } else {
          slot(sel.slot) = chosen.empty() ? InstanceHandle::null() : chosen.front();
        }
        return Flow::kNormal;
      }
      case StmtKind::kSelectRelated: {
        const auto& sel = static_cast<const SelectRelatedStmt&>(s);
        InstanceHandle start = as_handle(eval(*sel.start));
        InstanceSet rel = host_.database().related(start, sel.assoc);
        InstanceSet chosen = filter(rel, sel.where.get());
        if (sel.many) {
          slot(sel.slot) = std::move(chosen);
        } else {
          slot(sel.slot) = chosen.empty() ? InstanceHandle::null() : chosen.front();
        }
        return Flow::kNormal;
      }
      case StmtKind::kRelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        InstanceHandle a = as_handle(eval(*r.a));
        InstanceHandle b = as_handle(eval(*r.b));
        host_.database().relate(a, b, r.assoc);
        return Flow::kNormal;
      }
      case StmtKind::kUnrelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        InstanceHandle a = as_handle(eval(*r.a));
        InstanceHandle b = as_handle(eval(*r.b));
        host_.database().unrelate(a, b, r.assoc);
        return Flow::kNormal;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        for (const auto& br : i.branches) {
          if (as_bool(eval(*br.cond))) return exec_block(br.body);
        }
        if (i.else_body) return exec_block(*i.else_body);
        return Flow::kNormal;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        while (as_bool(eval(*w.cond))) {
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
        Value av = eval(*m.addr);
        Value vv = eval(*m.value);
        // The value operand is converted before the address (the jit's
        // lowering follows this order).
        std::int64_t v = as_int(vv);
        std::int64_t a = as_int(av);
        host_.mem_write(a, v);
        return Flow::kNormal;
      }
    }
    throw ModelError("unreachable statement kind");
  }

  InstanceSet filter(const InstanceSet& candidates, const Expr* where) {
    if (where == nullptr) return candidates;
    InstanceSet out;
    Value saved = selected_;
    for (const InstanceHandle& h : candidates) {
      selected_ = h;
      if (as_bool(eval(*where))) out.push_back(h);
    }
    selected_ = std::move(saved);
    return out;
  }

  const AnalyzedAction& action_;
  InstanceHandle self_;
  const std::vector<Value>& params_;
  Host& host_;
  std::uint64_t max_ops_;
  std::vector<Value> frame_;
  Value selected_ = InstanceHandle::null();
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
