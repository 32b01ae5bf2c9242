#include "xtsoc/jit/emit.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "xtsoc/oal/ast.hpp"

namespace xtsoc::jit {

namespace {

using namespace oal;

// --- literal rendering -------------------------------------------------------

std::string int_literal(std::int64_t v) {
  if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
  return std::to_string(v) + "LL";
}

/// Bit-exact double literal via hexfloat.
std::string real_literal(double v) {
  if (std::isnan(v)) return "__builtin_nan(\"\")";
  if (std::isinf(v)) return v < 0 ? "(-__builtin_inf())" : "__builtin_inf()";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// C string literal with 3-digit octal escapes for anything non-trivial
/// (octal, not hex: hex escapes are greedy and would swallow following
/// hex-digit characters).
std::string str_literal(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') ||
                       (c == ' ' || c == '_' || c == '.' || c == ',' ||
                        c == ':' || c == ';' || c == '!' || c == '+' ||
                        c == '-' || c == '*' || c == '/' || c == '=' ||
                        c == '(' || c == ')' || c == '[' || c == ']' ||
                        c == '<' || c == '>' || c == '{' || c == '}');
    if (plain) {
      out += ch;
    } else {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\%03o", c);
      out += esc;
    }
  }
  out += "\"";
  return out;
}

std::string u32(std::uint32_t v) { return std::to_string(v) + "u"; }

bool is_scalar(const Expr& e, DataType t) {
  return e.type.base == t && !e.type.is_set;
}

// --- action lowering ---------------------------------------------------------

/// Lowers one analyzed action to a C++ function (an XjActionFn), in the
/// shape of the typed walker (runtime/interp.cpp): each `eval_*` below is
/// the walker's function of that name, ticking where it ticks and
/// evaluating in its order.
///
/// An expression lowers to C++ text that is free of effects. Everything
/// that can fail or reaches the host (a local's unset check, a division,
/// an XjHostOps call) is emitted as a statement at the point the walker
/// performs it, into a temporary the text then names; so the text may be
/// evaluated later without reordering anything observable.
///
/// Ticks accumulate per straight-line run and are charged at the run's
/// start by one `ops += k; if (ops > max_ops) goto Lxj_lim;`. Every branch
/// or loop boundary ends a run, so totals match the walker exactly, and a
/// runaway loop trips the limit at worst one run before the walker would.
class ActionEmitter {
public:
  explicit ActionEmitter(const AnalyzedAction& action) : action_(action) {}

  /// The complete function definition, named `fn_name`.
  std::string emit(const std::string& fn_name) {
    open_run();
    lower_block(action_.ast);
    close_run();
    std::string out = "static uint64_t ";
    out += fn_name;
    out +=
        "(XjHost* h, const XjHostOps* o, XjValue self, const XjValue* p,\n"
        "    uint64_t max_ops) {\n"
        "  (void)h; (void)o; (void)self; (void)p; (void)max_ops;\n"
        "  uint64_t ops = 0u;\n"
        "  XjValue xsel = xj_null(); (void)xsel;\n";
    for (const LocalVar& v : action_.locals) {
      out += "  XjValue f";
      out += std::to_string(v.slot);
      out += " = xj_unset();\n";
    }
    out += body_;
    out +=
        "Lxj_done: ;\n"
        "  return ops;\n"
        "Lxj_lim: ;\n"
        "  xj_raise(h, o, XJ_ERR_OP_LIMIT);\n"
        "}\n\n";
    return out;
  }

private:
  // --- text and op accounting ------------------------------------------------

  void line(const std::string& s) {
    body_.append(2 * static_cast<std::size_t>(depth_), ' ');
    body_ += s;
    body_ += '\n';
  }

  /// `line(open)` and indent, ending the current run.
  void open_scope(const std::string& open) {
    close_run();
    line(open);
    ++depth_;
    open_run();
  }

  /// Dedent and close the scope, ending the current run.
  void close_scope() {
    close_run();
    --depth_;
    line("}");
    open_run();
  }

  /// A jump out of the current run (break, continue, return).
  void jump(const std::string& s) {
    close_run();
    line(s);
    open_run();
  }

  void tick() { ++run_ticks_; }

  void open_run() {
    run_at_ = body_.size();
    run_depth_ = depth_;
    run_ticks_ = 0;
  }

  void close_run() {
    if (run_ticks_ == 0) return;
    std::string charge(2 * static_cast<std::size_t>(run_depth_), ' ');
    charge += "ops += ";
    charge += std::to_string(run_ticks_);
    charge += "u; if (ops > max_ops) goto Lxj_lim;\n";
    body_.insert(run_at_, charge);
    run_ticks_ = 0;
  }

  /// Declare a fresh temporary of C++ type `type` initialised to `init`.
  std::string temp(const char* type, const std::string& init) {
    std::string t = "t" + std::to_string(next_temp_++);
    line(std::string(type) + " " + t + " = " + init + ";");
    return t;
  }

  std::string fresh(const char* prefix) {
    return prefix + std::to_string(next_temp_++);
  }

  // --- leaves ----------------------------------------------------------------

  /// A local read with the walker's unset check.
  std::string local(const VarRefExpr& v) {
    return temp("XjValue", "xj_local(h, o, f" + std::to_string(v.slot) +
                               ", " + str_literal(v.name) + ")");
  }

  void need(const std::string& v, const char* what) {
    line(std::string("xj_need_") + what + "(h, o, " + v + ");");
  }

  // --- typed expressions -----------------------------------------------------

  std::string eval_int(const Expr& e) {
    tick();
    return int_node(e);
  }

  std::string eval_real(const Expr& e) {
    tick();
    return real_node(e);
  }

  std::string eval_bool(const Expr& e) {
    tick();
    return bool_node(e);
  }

  std::string eval_handle(const Expr& e) {
    tick();
    if (e.kind == ExprKind::kSelfRef) return "self";
    if (e.kind == ExprKind::kSelectedRef) return "xsel";
    const std::string v = boxed_node(e);
    need(v, "h");
    return v;
  }

  /// Any expression as an XjValue (one op, like every node).
  std::string eval(const Expr& e) {
    tick();
    if (!e.type.is_set) {
      switch (e.type.base) {
        case DataType::kInt: return "xj_i(" + int_node(e) + ")";
        case DataType::kReal: return "xj_r(" + real_node(e) + ")";
        case DataType::kBool: return "xj_b(" + bool_node(e) + ")";
        default: break;
      }
    }
    return boxed_node(e);
  }

  /// An instance or set operand; a local is read without a copy in the
  /// walker, which ticks it here.
  std::string eval_ref(const Expr& e) {
    if (e.kind == ExprKind::kVarRef) {
      tick();
      return local(static_cast<const VarRefExpr&>(e));
    }
    return eval(e);
  }

  std::string int_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return int_literal(
            std::get<std::int64_t>(static_cast<const LiteralExpr&>(e).value));
      case ExprKind::kUnary:
        return "xj_neg(" +
               eval_int(*static_cast<const UnaryExpr&>(e).operand) + ")";
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const std::string a = eval_int(*b.lhs);
        const std::string c = eval_int(*b.rhs);
        switch (b.op) {
          case BinaryOp::kAdd: return "xj_iadd(" + a + ", " + c + ")";
          case BinaryOp::kSub: return "xj_isub(" + a + ", " + c + ")";
          case BinaryOp::kMul: return "xj_imul(" + a + ", " + c + ")";
          case BinaryOp::kDiv:
            return temp("int64_t", "xj_idiv(h, o, " + a + ", " + c + ")");
          default:
            return temp("int64_t", "xj_imod(h, o, " + a + ", " + c + ")");
        }
      }
      case ExprKind::kCardinality: {
        const Expr& operand = *static_cast<const CardinalityExpr&>(e).operand;
        const std::string v = eval_ref(operand);
        if (operand.type.is_set) {
          need(v, "set");
          return temp("int64_t", "o->set_size(h, " + v + ")");
        }
        need(v, "h");
        return "(int64_t)(" + v + ".u.h.cls != XJ_CLS_NULL)";
      }
      case ExprKind::kMemRead: {
        const std::string a =
            eval_int(*static_cast<const MemReadExpr&>(e).addr);
        return temp("int64_t", "o->mem_read(h, " + a + ")");
      }
      default:  // a local, parameter or attribute
        return temp("int64_t", "xj_int(h, o, " + boxed_node(e) + ")");
    }
  }

  /// A real-typed node, or an int-typed one evaluated as int and widened.
  std::string real_node(const Expr& e) {
    if (e.type.base == DataType::kInt) return "(double)" + int_node(e);
    switch (e.kind) {
      case ExprKind::kLiteral:
        return real_literal(
            std::get<double>(static_cast<const LiteralExpr&>(e).value));
      case ExprKind::kUnary:
        return "(-(" +
               eval_real(*static_cast<const UnaryExpr&>(e).operand) + "))";
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const std::string a = eval_real(*b.lhs);
        const std::string c = eval_real(*b.rhs);
        // IEEE semantics, real division by zero included.
        static const char* const kOp[] = {" + ", " - ", " * ", " / "};
        return "(" + a + kOp[static_cast<int>(b.op)] + c + ")";
      }
      default:  // a local, parameter or attribute
        return temp("double", "xj_real(h, o, " + boxed_node(e) + ")");
    }
  }

  std::string bool_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return std::get<bool>(static_cast<const LiteralExpr&>(e).value) ? "1"
                                                                        : "0";
      case ExprKind::kUnary:
        return "(!" + eval_bool(*static_cast<const UnaryExpr&>(e).operand) +
               ")";
      case ExprKind::kBinary:
        return bool_binary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kEmpty:
      case ExprKind::kNotEmpty: {
        const Expr& operand = *static_cast<const EmptyExpr&>(e).operand;
        const std::string v = eval_ref(operand);
        std::string empty;
        if (operand.type.is_set) {
          need(v, "set");
          empty = temp("int", "o->set_size(h, " + v + ") == 0");
        } else {
          need(v, "h");
          empty = temp("int", v + ".u.h.cls == XJ_CLS_NULL || " +
                                  "!o->handle_alive(h, " + v + ")");
        }
        return e.kind == ExprKind::kEmpty ? empty : "(!" + empty + ")";
      }
      default:  // a local, parameter or attribute
        return temp("int", "xj_bool(h, o, " + boxed_node(e) + ")");
    }
  }

  std::string bool_binary(const BinaryExpr& b) {
    if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
      // The right operand runs, and is charged, only when it decides.
      const std::string r = temp("int", eval_bool(*b.lhs));
      open_scope(b.op == BinaryOp::kAnd ? "if (" + r + ") {"
                                        : "if (!" + r + ") {");
      line(r + " = " + eval_bool(*b.rhs) + ";");
      close_scope();
      return r;
    }

    // Operands compare on their static types, as in the walker.
    static const char* const kRel[] = {" == ", " != ", " < ",
                                       " <= ", " > ",  " >= "};
    const char* rel =
        kRel[static_cast<int>(b.op) - static_cast<int>(BinaryOp::kEq)];
    const Expr& l = *b.lhs;
    const Expr& r = *b.rhs;
    if (is_scalar(l, DataType::kInt) && is_scalar(r, DataType::kInt)) {
      const std::string a = eval_int(l);
      const std::string c = eval_int(r);
      return "(" + a + rel + c + ")";
    }
    if (l.type.is_numeric() && r.type.is_numeric()) {
      const std::string a = eval_real(l);
      const std::string c = eval_real(r);
      // The walker orders through a three-way compare, so an unordered
      // (NaN) pair counts as equal for <= and >=.
      if (b.op == BinaryOp::kLe) return "(!(" + a + " > " + c + "))";
      if (b.op == BinaryOp::kGe) return "(!(" + a + " < " + c + "))";
      return "(" + a + rel + c + ")";
    }
    if (is_scalar(l, DataType::kBool) && is_scalar(r, DataType::kBool)) {
      const std::string a = eval_bool(l);
      const std::string c = eval_bool(r);
      return "(" + a + rel + c + ")";  // only == and != type-check on bools
    }
    const std::string lv = eval(l);
    const std::string rv = eval(r);
    if (b.op == BinaryOp::kEq || b.op == BinaryOp::kNe) {
      const std::string eq =
          l.type.is_instance()
              ? "xj_heq(" + lv + ", " + rv + ")"
              : temp("int", "o->values_equal(h, " + lv + ", " + rv + ")");
      return b.op == BinaryOp::kEq ? eq : "(!" + eq + ")";
    }
    return "(" + temp("int", "o->str_compare(h, " + lv + ", " + rv + ")") +
           rel + "0)";
  }

  /// The nodes that are not scalar-typed: strings, instance references and
  /// sets (the op was ticked by the caller).
  std::string boxed_node(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral: {
        const auto& s =
            std::get<std::string>(static_cast<const LiteralExpr&>(e).value);
        return temp("XjValue", "o->str_const(h, " + str_literal(s) + ", " +
                                   std::to_string(s.size()) + "u)");
      }
      case ExprKind::kVarRef:
        return local(static_cast<const VarRefExpr&>(e));
      case ExprKind::kSelfRef:
        return "self";
      case ExprKind::kParamRef:
        return "p[" +
               std::to_string(static_cast<const ParamRefExpr&>(e).param_index) +
               "]";
      case ExprKind::kSelectedRef:
        return "xsel";
      case ExprKind::kAttrAccess: {
        const auto& a = static_cast<const AttrAccessExpr&>(e);
        const std::string obj = eval_handle(*a.object);
        return temp("XjValue", "o->get_attr(h, " + obj + ", " +
                                   u32(a.attr.value()) + ")");
      }
      default: {  // string concatenation
        const auto& b = static_cast<const BinaryExpr&>(e);
        const std::string lv = eval(*b.lhs);
        const std::string rv = eval(*b.rhs);
        return temp("XjValue", "o->str_concat(h, " + lv + ", " + rv + ")");
      }
    }
  }

  // --- statements ------------------------------------------------------------

  /// A block stops after a jump: what follows it never runs.
  void lower_block(const Block& b) {
    for (const auto& s : b.stmts) {
      lower_stmt(*s);
      if (s->kind == StmtKind::kBreak || s->kind == StmtKind::kContinue ||
          s->kind == StmtKind::kReturn) {
        return;
      }
    }
  }

  /// Each statement gets a C++ scope, so its temporaries never cross a
  /// jump target.
  void lower_stmt(const Stmt& s) {
    line("{");
    ++depth_;
    tick();
    lower_stmt_body(s);
    --depth_;
    line("}");
  }

  void lower_stmt_body(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        if (a.lvalue->kind == ExprKind::kVarRef) {
          const auto& var = static_cast<const VarRefExpr&>(*a.lvalue);
          const std::string f = "f" + std::to_string(var.slot);
          // An int assigned to a real local widens (eval_real).
          if (is_scalar(var, DataType::kInt)) {
            line(f + " = xj_i(" + eval_int(*a.rvalue) + ");");
          } else if (is_scalar(var, DataType::kReal)) {
            line(f + " = xj_r(" + eval_real(*a.rvalue) + ");");
          } else if (is_scalar(var, DataType::kBool)) {
            line(f + " = xj_b(" + eval_bool(*a.rvalue) + ");");
          } else {
            line(f + " = " + eval(*a.rvalue) + ";");
          }
        } else {
          const auto& acc = static_cast<const AttrAccessExpr&>(*a.lvalue);
          const std::string v = eval(*a.rvalue);
          const std::string obj = eval_handle(*acc.object);
          line("o->set_attr(h, " + obj + ", " + u32(acc.attr.value()) + ", " +
               v + ");");
        }
        return;
      }
      case StmtKind::kCreate: {
        const auto& c = static_cast<const CreateStmt&>(s);
        line("f" + std::to_string(c.slot) + " = o->create_inst(h, " +
             u32(c.cls.value()) + ");");
        return;
      }
      case StmtKind::kDelete: {
        const auto& d = static_cast<const DeleteStmt&>(s);
        line("o->delete_inst(h, " + eval_handle(*d.object) + ");");
        return;
      }
      case StmtKind::kGenerate:
        lower_generate(static_cast<const GenerateStmt&>(s));
        return;
      case StmtKind::kSelectFrom: {
        const auto& sel = static_cast<const SelectFromStmt&>(s);
        const std::string all =
            temp("XjValue", "o->select_all(h, " + u32(sel.cls.value()) + ")");
        store_selection(sel.slot, sel.many, all, sel.where.get());
        return;
      }
      case StmtKind::kSelectRelated: {
        const auto& sel = static_cast<const SelectRelatedStmt&>(s);
        const std::string start = eval_handle(*sel.start);
        const std::string rel =
            temp("XjValue", "o->related(h, " + start + ", " +
                                u32(sel.assoc.value()) + ")");
        store_selection(sel.slot, sel.many, rel, sel.where.get());
        return;
      }
      case StmtKind::kRelate:
      case StmtKind::kUnrelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        const std::string a = eval_handle(*r.a);
        const std::string b = eval_handle(*r.b);
        line(std::string("o->") +
             (s.kind == StmtKind::kRelate ? "relate" : "unrelate") + "(h, " +
             a + ", " + b + ", " + u32(r.assoc.value()) + ");");
        return;
      }
      case StmtKind::kIf:
        lower_if(static_cast<const IfStmt&>(s), 0);
        return;
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        open_scope("for (;;) {");
        const std::string c = eval_bool(*w.cond);
        jump("if (!" + c + ") break;");
        lower_block(w.body);
        close_scope();
        return;
      }
      case StmtKind::kForEach: {
        // The walker iterates a copy: the set value is fixed at entry.
        const auto& fe = static_cast<const ForEachStmt&>(s);
        const std::string set = temp("XjValue", eval(*fe.set));
        need(set, "set");
        const std::string n = temp("int64_t", "o->set_size(h, " + set + ")");
        const std::string i = fresh("i");
        open_scope("for (int64_t " + i + " = 0; " + i + " < " + n + "; ++" +
                   i + ") {");
        line("f" + std::to_string(fe.slot) + " = o->set_at(h, " + set + ", " +
             i + ");");
        lower_block(fe.body);
        close_scope();
        return;
      }
      case StmtKind::kBreak:
        jump("break;");
        return;
      case StmtKind::kContinue:
        jump("continue;");
        return;
      case StmtKind::kReturn:
        jump("goto Lxj_done;");
        return;
      case StmtKind::kLog: {
        const auto& l = static_cast<const LogStmt&>(s);
        std::string vals = "(const XjValue*)0";
        if (!l.args.empty()) {
          vals = fresh("g");
          line("XjValue " + vals + "[" + std::to_string(l.args.size()) +
               "];");
          for (std::size_t k = 0; k < l.args.size(); ++k) {
            line(vals + "[" + std::to_string(k) + "] = " + eval(*l.args[k]) +
                 ";");
          }
        }
        line("o->log_vals(h, " + vals + ", " + std::to_string(l.args.size()) +
             "u);");
        return;
      }
      case StmtKind::kMemWrite: {
        const auto& m = static_cast<const MemWriteStmt&>(s);
        const std::string a = eval_int(*m.addr);
        const std::string v = eval_int(*m.value);
        line("o->mem_write(h, " + a + ", " + v + ");");
        return;
      }
    }
  }

  /// Branch k of an if/elif chain; the later branches nest in its else.
  void lower_if(const IfStmt& i, std::size_t k) {
    if (k == i.branches.size()) {
      if (i.else_body) lower_block(*i.else_body);
      return;
    }
    const IfStmt::Branch& br = i.branches[k];
    open_scope("if (" + eval_bool(*br.cond) + ") {");
    lower_block(br.body);
    if (k + 1 < i.branches.size() || i.else_body) {
      close_run();
      --depth_;
      line("} else {");
      ++depth_;
      open_run();
      lower_if(i, k + 1);
    }
    close_scope();
  }

  void lower_generate(const GenerateStmt& g) {
    // Walker order: the target (checked at once), the arguments in source
    // order, then the delay.
    const std::string target = eval_handle(*g.target);
    line("if (" + target +
         ".u.h.cls == XJ_CLS_NULL) xj_raise(h, o, XJ_ERR_GEN_NULL);");
    std::string args = "(const XjValue*)0";
    if (!g.args.empty()) {
      args = fresh("g");
      line("XjValue " + args + "[" + std::to_string(g.args.size()) + "];");
      for (const auto& a : g.args) {
        line(args + "[" + std::to_string(a.param_index) + "] = " +
             eval(*a.value) + ";");
      }
    }
    std::string delay = "0";
    if (g.delay) {
      delay = temp("int64_t", eval_int(*g.delay));
      line("if (" + delay + " < 0) xj_raise(h, o, XJ_ERR_NEG_DELAY);");
    }
    line("o->emit_ev(h, " + target + ", " +
         u32((g.target_class.value() << 16) | g.event.value()) + ", " + args +
         ", " + std::to_string(g.args.size()) + "u, " + delay + ");");
  }

  /// Apply an optional where-filter to `candidates`, then store the set
  /// (many) or its first element or null (any/one). The predicate runs on
  /// every candidate with `selected` bound, as in the walker, which also
  /// restores the outer `selected` afterwards.
  void store_selection(int slot, bool many, const std::string& candidates,
                       const Expr* where) {
    const std::string f = "f" + std::to_string(slot);
    if (where == nullptr) {
      line(f + " = " +
           (many ? candidates : "o->set_first(h, " + candidates + ")") + ";");
      return;
    }
    const std::string saved = temp("XjValue", "xsel");
    const std::string out =
        temp("XjValue", many ? "o->set_new(h)" : "xj_null()");
    const std::string found = many ? "" : temp("int", "0");
    const std::string n =
        temp("int64_t", "o->set_size(h, " + candidates + ")");
    const std::string i = fresh("i");
    open_scope("for (int64_t " + i + " = 0; " + i + " < " + n + "; ++" + i +
               ") {");
    line("xsel = o->set_at(h, " + candidates + ", " + i + ");");
    const std::string keep = eval_bool(*where);
    if (many) {
      line("if (" + keep + ") o->set_append(h, " + out + ", xsel);");
    } else {
      line("if (" + keep + " && !" + found + ") { " + out + " = xsel; " +
           found + " = 1; }");
    }
    close_scope();
    line("xsel = " + saved + ";");
    line(f + " = " + out + ";");
  }

  const AnalyzedAction& action_;
  std::string body_;
  int depth_ = 1;
  int next_temp_ = 0;
  std::size_t run_at_ = 0;
  int run_depth_ = 1;
  std::uint64_t run_ticks_ = 0;
};

/// Inline helpers prepended to every generated translation unit. The
/// typed code needs only constructors, the checked reads that raise the
/// walker's errors, and the int rules the walker computes by.
const char* const kPrelude = R"XJP(
namespace {

static inline XjValue xj_unset() {
  XjValue v; v.tag = XJ_TAG_UNSET; v.aux = 0u; v.u.i = 0; return v;
}
static inline XjValue xj_b(int x) {
  XjValue v; v.tag = XJ_TAG_BOOL; v.aux = 0u; v.u.i = x ? 1 : 0; return v;
}
static inline XjValue xj_i(int64_t x) {
  XjValue v; v.tag = XJ_TAG_INT; v.aux = 0u; v.u.i = x; return v;
}
static inline XjValue xj_r(double x) {
  XjValue v; v.tag = XJ_TAG_REAL; v.aux = 0u; v.u.d = x; return v;
}
static inline XjValue xj_null() {
  XjValue v; v.tag = XJ_TAG_HANDLE; v.aux = 0u;
  v.u.h.cls = XJ_CLS_NULL; v.u.h.idx = 0u; return v;
}

#if defined(__GNUC__)
#define XJ_UNREACHABLE() __builtin_trap()
#else
#define XJ_UNREACHABLE() for (;;) {}
#endif

[[noreturn]] static void xj_raise(XjHost* h, const XjHostOps* o, uint32_t e) {
  o->fail(h, e);
  XJ_UNREACHABLE();
}
[[noreturn]] static void xj_conv(XjHost* h, const XjHostOps* o, uint32_t c,
                                 XjValue v) {
  o->fail_conv(h, c, v);
  XJ_UNREACHABLE();
}

/* A local read: an unset local raises the walker's error. */
static inline XjValue xj_local(XjHost* h, const XjHostOps* o, XjValue v,
                               const char* name) {
  if (v.tag == XJ_TAG_UNSET) {
    o->fail_unset(h, name);
    XJ_UNREACHABLE();
  }
  return v;
}

/* Scalar reads of a stored value. Sema's types hold at runtime, so the
   first test succeeds; the rest is the runtime's conversion. */
static inline int xj_bool(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag == XJ_TAG_BOOL) return (int)v.u.i;
  xj_conv(h, o, XJ_CONV_BOOL, v);
}
static inline int64_t xj_int(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag == XJ_TAG_INT) return v.u.i;
  xj_conv(h, o, XJ_CONV_INT, v);
}
static inline double xj_real(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag == XJ_TAG_REAL) return v.u.d;
  if (v.tag == XJ_TAG_INT) return (double)v.u.i;
  xj_conv(h, o, XJ_CONV_REAL, v);
}
static inline void xj_need_h(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag != XJ_TAG_HANDLE) xj_conv(h, o, XJ_CONV_HANDLE, v);
}
static inline void xj_need_set(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag != XJ_TAG_SET) xj_conv(h, o, XJ_CONV_SET, v);
}
static inline int xj_heq(XjValue l, XjValue r) {
  return l.u.h.cls == r.u.h.cls && l.u.h.idx == r.u.h.idx && l.aux == r.aux;
}

/* Model ints wrap (two's complement, computed through uint64_t so overflow
   is defined); INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0, as in
   the walker. */
static inline int64_t xj_iadd(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a + (uint64_t)b);
}
static inline int64_t xj_isub(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a - (uint64_t)b);
}
static inline int64_t xj_imul(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a * (uint64_t)b);
}
static inline int64_t xj_neg(int64_t a) { return (int64_t)(0u - (uint64_t)a); }
static inline int64_t xj_idiv(XjHost* h, const XjHostOps* o, int64_t a,
                              int64_t b) {
  if (b == 0) xj_raise(h, o, XJ_ERR_DIV0);
  return b == -1 ? xj_neg(a) : a / b;
}
static inline int64_t xj_imod(XjHost* h, const XjHostOps* o, int64_t a,
                              int64_t b) {
  if (b == 0) xj_raise(h, o, XJ_ERR_MOD0);
  return b == -1 ? 0 : a % b;
}

}  // namespace
)XJP";

}  // namespace

std::string emit_module_source(const oal::CompiledDomain& dom,
                               const std::string& digest) {
  std::string src;
  src += "/* generated by xtsoc::jit for domain '" + dom.domain().name() +
         "' — do not edit */\n";
  src += kAbiHeaderText;
  src += kPrelude;
  src += "namespace {\n\n";
  std::string entries;
  std::size_t count = 0;
  for (const oal::CompiledClass& cc : dom.classes()) {
    for (std::size_t s = 0; s < cc.state_actions.size(); ++s) {
      const std::string fn = "xj_act_" + std::to_string(cc.id.value()) + "_" +
                             std::to_string(s);
      src += ActionEmitter(cc.state_actions[s]).emit(fn);
      entries += "  {" + u32(cc.id.value()) + ", " +
                 u32(static_cast<std::uint32_t>(s)) + ", &" + fn + "},\n";
      ++count;
    }
  }
  src += "static const XjEntry kEntries[] = {\n";
  src += entries;
  // A dummy terminator keeps the array non-empty for action-less domains.
  src += "  {0xffffffffu, 0xffffffffu, (XjActionFn)0},\n";
  src += "};\n\n";
  src += "static const XjModule kModule = {\n"
         "  XTSOC_JIT_ABI_VERSION,\n"
         "  " + std::to_string(count) + "u,\n"
         "  kEntries,\n"
         "  \"" + digest + "\",\n"
         "};\n\n"
         "}  // namespace\n\n"
         "extern \"C\" const XjModule* xtsoc_jit_module(void) {\n"
         "  return &kModule;\n"
         "}\n";
  return src;
}

}  // namespace xtsoc::jit
