#include "xtsoc/codegen/cgen.hpp"

#include <sstream>

#include "xtsoc/oal/ast.hpp"
#include "xtsoc/oal/printer.hpp"
#include "xtsoc/oal/sema.hpp"

namespace xtsoc::codegen {

namespace {

using namespace oal;
using mapping::MappedSystem;
using xtuml::ClassDef;
using xtuml::DataType;
using xtuml::Domain;

std::string lower(const std::string& name) { return to_snake_case(name); }
std::string upper(const std::string& name) { return to_upper_snake(name); }

/// C storage type for an abstract data type. Wire widths only matter at the
/// boundary; in-memory software uses full-width types.
const char* c_type(DataType t) {
  switch (t) {
    case DataType::kBool: return "bool";
    case DataType::kInt: return "int64_t";
    case DataType::kReal: return "double";
    case DataType::kString: return "xt_str_t";
    case DataType::kInstRef: return "xt_handle_t";
    default: return "void";
  }
}

std::string c_type_of(const OalType& t, const Domain& domain) {
  if (t.is_set) return lower(domain.cls(t.cls).name) + "_set_t";
  return c_type(t.base);
}

/// Default value literal for a C field.
std::string c_default(const xtuml::AttributeDef& a) {
  if (!a.default_value) {
    switch (a.type) {
      case DataType::kBool: return "false";
      case DataType::kInt: return "0";
      case DataType::kReal: return "0.0";
      case DataType::kString: return "xt_str(\"\")";
      case DataType::kInstRef: return "xt_null_handle()";
      default: return "0";
    }
  }
  switch (a.default_value->index()) {
    case 0: return std::get<bool>(*a.default_value) ? "true" : "false";
    case 1: return std::to_string(std::get<std::int64_t>(*a.default_value));
    case 2: {
      std::ostringstream os;
      os << std::get<double>(*a.default_value);
      std::string s = os.str();
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    default:
      return "xt_str(\"" + std::get<std::string>(*a.default_value) + "\")";
  }
}

std::string escape_c_string(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Indented text sink.
class Writer {
public:
  Writer& line(const std::string& text = {}) {
    if (!text.empty()) {
      for (int i = 0; i < indent_; ++i) os_ << "  ";
      os_ << text;
    }
    os_ << '\n';
    return *this;
  }
  Writer& open(const std::string& text) {
    line(text);
    ++indent_;
    return *this;
  }
  Writer& close(const std::string& text = "}") {
    --indent_;
    if (!text.empty()) line(text);
    return *this;
  }
  std::string str() const { return os_.str(); }

private:
  std::ostringstream os_;
  int indent_ = 0;
};

/// Name of the args-union member for the event entering `state` (all
/// entering events share a signature; the first one names the member).
std::string entry_member(const ClassDef& cls, StateId state) {
  for (const auto& t : cls.transitions) {
    if (t.to == state) return lower(cls.event(t.event).name);
  }
  return {};
}

bool event_has_params(const xtuml::EventDef& e) { return !e.params.empty(); }

bool class_has_params(const ClassDef& c) {
  for (const auto& e : c.events) {
    if (event_has_params(e)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// OAL -> C expression/statement translation
// ---------------------------------------------------------------------------

class CTranslator {
public:
  CTranslator(const MappedSystem& sys, const ClassDef& cls,
              const AnalyzedAction& action, const std::string& args_member)
      : sys_(sys), domain_(sys.domain()), cls_(cls), action_(action),
        args_member_(args_member) {}

  void emit_body(Writer& w) {
    // Locals, with types inferred by sema.
    for (const auto& local : action_.locals) {
      std::string ty = c_type_of(local.type, domain_);
      std::string init;
      if (local.type.is_set) {
        init = " = {{xt_null_handle()}, 0}";
      } else if (local.type.base == DataType::kInstRef) {
        init = " = xt_null_handle()";
      } else if (local.type.base == DataType::kString) {
        init = " = xt_str(\"\")";
      } else {
        init = " = 0";
      }
      w.line(ty + " " + local.name + init + ";");
    }
    for (const auto& local : action_.locals) {
      w.line("(void)" + local.name + ";");
    }
    emit_block(w, action_.ast);
  }

private:
  std::string prefix(ClassId cls) const { return lower(domain_.cls(cls).name); }

  std::string deref(ClassId cls, const std::string& handle_expr) const {
    return prefix(cls) + "_get(" + handle_expr + ")";
  }

  // --- expressions ---------------------------------------------------------

  std::string expr(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLiteral: {
        const auto& lit = static_cast<const LiteralExpr&>(e);
        switch (lit.value.index()) {
          case 0: return std::get<bool>(lit.value) ? "true" : "false";
          case 1: return std::to_string(std::get<std::int64_t>(lit.value));
          case 2: {
            std::ostringstream os;
            os << std::get<double>(lit.value);
            std::string s = os.str();
            if (s.find('.') == std::string::npos &&
                s.find('e') == std::string::npos) {
              s += ".0";
            }
            return s;
          }
          default:
            return "xt_str(\"" +
                   escape_c_string(std::get<std::string>(lit.value)) + "\")";
        }
      }
      case ExprKind::kVarRef:
        return static_cast<const VarRefExpr&>(e).name;
      case ExprKind::kSelfRef:
        return "self";
      case ExprKind::kSelectedRef:
        return "_sel";
      case ExprKind::kParamRef: {
        const auto& p = static_cast<const ParamRefExpr&>(e);
        return "args->" + args_member_ + "." + p.name;
      }
      case ExprKind::kAttrAccess: {
        const auto& a = static_cast<const AttrAccessExpr&>(e);
        return deref(a.cls, expr(*a.object)) + "->" + a.attr_name;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        const char* op = u.op == UnaryOp::kNot                  ? "!"
                         : u.operand->type.base == DataType::kInt ? "xt_ineg"
                                                                  : "-";
        return std::string(op) + "(" + expr(*u.operand) + ")";
      }
      case ExprKind::kBinary:
        return binary(static_cast<const BinaryExpr&>(e));
      case ExprKind::kCardinality: {
        const auto& c = static_cast<const CardinalityExpr&>(e);
        if (c.operand->type.is_set) {
          return "((int64_t)(" + expr(*c.operand) + ").n)";
        }
        return "(" + alive(c.operand->type.cls, expr(*c.operand)) +
               " ? (int64_t)1 : (int64_t)0)";
      }
      case ExprKind::kEmpty:
      case ExprKind::kNotEmpty: {
        const auto& em = static_cast<const EmptyExpr&>(e);
        std::string inner;
        if (em.operand->type.is_set) {
          inner = "((" + expr(*em.operand) + ").n == 0)";
        } else {
          inner = "(!" + alive(em.operand->type.cls, expr(*em.operand)) + ")";
        }
        return e.kind == ExprKind::kEmpty ? inner : ("(!" + inner + ")");
      }
      case ExprKind::kMemRead:
        return "((int64_t)0 /* mem.read: no memory model in generated C */)";
    }
    return "0";
  }

  std::string alive(ClassId cls, const std::string& handle) const {
    return prefix(cls) + "_alive(" + handle + ")";
  }

  std::string binary(const BinaryExpr& b) const {
    const OalType& lt = b.lhs->type;
    const OalType& rt = b.rhs->type;
    const bool strings =
        lt.base == DataType::kString && rt.base == DataType::kString;
    const bool handles =
        lt.base == DataType::kInstRef && rt.base == DataType::kInstRef &&
        !lt.is_set && !rt.is_set;
    // Int arithmetic goes through the wrapping helpers in the model header.
    const bool ints = b.type.base == DataType::kInt;
    std::string l = expr(*b.lhs);
    std::string r = expr(*b.rhs);
    switch (b.op) {
      case BinaryOp::kAdd:
        if (strings) return "xt_str_cat(" + l + ", " + r + ")";
        if (ints) return "xt_iadd(" + l + ", " + r + ")";
        return "(" + l + " + " + r + ")";
      case BinaryOp::kSub:
        if (ints) return "xt_isub(" + l + ", " + r + ")";
        return "(" + l + " - " + r + ")";
      case BinaryOp::kMul:
        if (ints) return "xt_imul(" + l + ", " + r + ")";
        return "(" + l + " * " + r + ")";
      case BinaryOp::kDiv:
        if (ints) return "xt_idiv(" + l + ", " + r + ")";
        return "(" + l + " / " + r + ")";
      case BinaryOp::kMod: return "xt_imod(" + l + ", " + r + ")";
      case BinaryOp::kAnd: return "(" + l + " && " + r + ")";
      case BinaryOp::kOr: return "(" + l + " || " + r + ")";
      case BinaryOp::kEq:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") == 0)";
        if (handles) return "xt_handle_eq(" + l + ", " + r + ")";
        return "(" + l + " == " + r + ")";
      case BinaryOp::kNe:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") != 0)";
        if (handles) return "(!xt_handle_eq(" + l + ", " + r + "))";
        return "(" + l + " != " + r + ")";
      case BinaryOp::kLt:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") < 0)";
        return "(" + l + " < " + r + ")";
      case BinaryOp::kLe:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") <= 0)";
        return "(" + l + " <= " + r + ")";
      case BinaryOp::kGt:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") > 0)";
        return "(" + l + " > " + r + ")";
      case BinaryOp::kGe:
        if (strings) return "(xt_str_cmp(" + l + ", " + r + ") >= 0)";
        return "(" + l + " >= " + r + ")";
    }
    return "0";
  }

  // --- statements ----------------------------------------------------------

  void emit_block(Writer& w, const Block& b) {
    for (const auto& s : b.stmts) emit_stmt(w, *s);
  }

  void emit_stmt(Writer& w, const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        w.line(expr(*a.lvalue) + " = " + expr(*a.rvalue) + ";");
        break;
      }
      case StmtKind::kCreate: {
        const auto& c = static_cast<const CreateStmt&>(s);
        w.line(c.var + " = " + prefix(c.cls) + "_create();");
        break;
      }
      case StmtKind::kDelete: {
        const auto& d = static_cast<const DeleteStmt&>(s);
        w.line(prefix(d.object->type.cls) + "_delete(" + expr(*d.object) +
               ");");
        break;
      }
      case StmtKind::kGenerate:
        emit_generate(w, static_cast<const GenerateStmt&>(s));
        break;
      case StmtKind::kSelectFrom:
        emit_select_from(w, static_cast<const SelectFromStmt&>(s));
        break;
      case StmtKind::kSelectRelated:
        emit_select_related(w, static_cast<const SelectRelatedStmt&>(s));
        break;
      case StmtKind::kRelate:
      case StmtKind::kUnrelate: {
        const auto& r = static_cast<const RelateStmt&>(s);
        const xtuml::AssociationDef& assoc = domain_.association(r.assoc);
        const char* fn = s.kind == StmtKind::kRelate ? "_relate(" : "_unrelate(";
        // Canonicalize argument order to (end a, end b).
        std::string a = expr(*r.a);
        std::string b = expr(*r.b);
        if (assoc.a.cls != assoc.b.cls && r.a->type.cls == assoc.b.cls) {
          std::swap(a, b);
        }
        w.line(lower(assoc.name) + fn + a + ", " + b + ");");
        break;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        for (std::size_t k = 0; k < i.branches.size(); ++k) {
          const char* kw = k == 0 ? "if (" : "} else if (";
          w.open(std::string(kw) + expr(*i.branches[k].cond) + ") {");
          emit_block(w, i.branches[k].body);
          w.close("");
        }
        if (i.else_body) {
          w.open("} else {");
          emit_block(w, *i.else_body);
          w.close("");
        }
        w.line("}");
        break;
      }
      case StmtKind::kWhile: {
        const auto& wh = static_cast<const WhileStmt&>(s);
        w.open("while (" + expr(*wh.cond) + ") {");
        emit_block(w, wh.body);
        w.close();
        break;
      }
      case StmtKind::kForEach: {
        const auto& f = static_cast<const ForEachStmt&>(s);
        std::string set_ty = c_type_of(f.set->type, domain_);
        w.open("{");
        w.line(set_ty + " _fe = " + expr(*f.set) + ";");
        w.open("for (int32_t _i = 0; _i < _fe.n; ++_i) {");
        w.line(f.var + " = _fe.items[_i];");
        emit_block(w, f.body);
        w.close();
        w.close();
        break;
      }
      case StmtKind::kBreak:
        w.line("break;");
        break;
      case StmtKind::kContinue:
        w.line("continue;");
        break;
      case StmtKind::kReturn:
        w.line("return;");
        break;
      case StmtKind::kLog:
        emit_log(w, static_cast<const LogStmt&>(s));
        break;
      case StmtKind::kMemWrite:
        w.line("/* mem.write: no memory model in generated C */");
        break;
    }
  }

  void emit_generate(Writer& w, const GenerateStmt& g) {
    const ClassDef& target = domain_.cls(g.target_class);
    const xtuml::EventDef& ev = target.event(g.event);
    std::string tgt = expr(*g.target);
    std::string delay = g.delay ? expr(*g.delay) : "0";

    // Order argument expressions by parameter index.
    std::vector<std::string> arg_exprs(ev.params.size());
    for (const auto& a : g.args) {
      arg_exprs[static_cast<std::size_t>(a.param_index)] = expr(*a.value);
    }

    const bool cross = sys_.partition().crosses_interconnect(cls_.id, target.id);
    if (cross) {
      // Boundary: per-message helper from the synthesized interface.
      std::string call = "xt_bus_send_" + lower(target.name) + "_" +
                         lower(ev.name) + "(" + tgt;
      for (const auto& a : arg_exprs) call += ", " + a;
      call += ", (uint64_t)(" + delay + "));";
      w.line(call);
      return;
    }

    std::string args_lit = "NULL";
    if (event_has_params(ev)) {
      std::string init = "{." + lower(target.name) + ".e_" + lower(ev.name) +
                         " = {";
      for (std::size_t i = 0; i < ev.params.size(); ++i) {
        if (i > 0) init += ", ";
        init += "." + ev.params[i].name + " = " + arg_exprs[i];
      }
      init += "}}";
      args_lit = "&(xt_any_args_t)" + init;
    }
    w.line("xt_send(XT_CLS_" + upper(target.name) + ", (uint8_t)" +
           upper(target.name) + "_EV_" + upper(ev.name) + ", " + tgt +
           ", xt_handle_eq(" + tgt + ", self), (uint64_t)(" + delay + "), " +
           args_lit + ");");
  }

  void emit_select_from(Writer& w, const SelectFromStmt& s) {
    std::string p = prefix(s.cls);
    w.open("{");
    w.line(p + "_set_t _tmp; _tmp.n = 0;");
    w.open("for (int32_t _i = 0; _i < (int32_t)" + upper(domain_.cls(s.cls).name)
           + "_POOL; ++_i) {");
    w.line("if (!g_" + p + "_pool[_i]._alive) continue;");
    w.line("xt_handle_t _sel = " + p + "_handle_at(_i);");
    w.line("(void)_sel;");
    if (s.where) w.line("if (!(" + expr(*s.where) + ")) continue;");
    w.line("_tmp.items[_tmp.n++] = _sel;");
    if (!s.many) w.line("break;");
    w.close();
    if (s.many) {
      w.line(s.var + " = _tmp;");
    } else {
      w.line(s.var + " = _tmp.n ? _tmp.items[0] : xt_null_handle();");
    }
    w.close();
  }

  void emit_select_related(Writer& w, const SelectRelatedStmt& s) {
    const xtuml::AssociationDef& assoc = domain_.association(s.assoc);
    std::string p = prefix(s.cls);
    w.open("{");
    w.line("xt_handle_t _rel[XT_LINK_MAX];");
    w.line("int32_t _rn = " + lower(assoc.name) + "_related(" +
           expr(*s.start) + ", _rel, XT_LINK_MAX);");
    w.line(p + "_set_t _tmp; _tmp.n = 0;");
    w.open("for (int32_t _i = 0; _i < _rn; ++_i) {");
    w.line("xt_handle_t _sel = _rel[_i];");
    w.line("(void)_sel;");
    if (s.where) w.line("if (!(" + expr(*s.where) + ")) continue;");
    w.line("_tmp.items[_tmp.n++] = _sel;");
    if (!s.many) w.line("break;");
    w.close();
    if (s.many) {
      w.line(s.var + " = _tmp;");
    } else {
      w.line(s.var + " = _tmp.n ? _tmp.items[0] : xt_null_handle();");
    }
    w.close();
  }

  void emit_log(Writer& w, const LogStmt& l) {
    std::string fmt;
    std::string args;
    for (std::size_t i = 0; i < l.args.size(); ++i) {
      if (i > 0) fmt += " ";
      const OalType& t = l.args[i]->type;
      std::string ex = expr(*l.args[i]);
      if (t.is_set) {
        fmt += "{set:%d}";
        args += ", (int)(" + ex + ").n";
      } else {
        switch (t.base) {
          case DataType::kBool:
            fmt += "%d";
            args += ", (int)(" + ex + ")";
            break;
          case DataType::kInt:
            fmt += "%lld";
            args += ", (long long)(" + ex + ")";
            break;
          case DataType::kReal:
            fmt += "%g";
            args += ", (" + ex + ")";
            break;
          case DataType::kString:
            fmt += "%s";
            args += ", (" + ex + ").s";
            break;
          case DataType::kInstRef:
            fmt += "inst(%u)";
            args += ", (unsigned)(" + ex + ").index";
            break;
          default:
            break;
        }
      }
    }
    w.line("printf(\"" + escape_c_string(fmt) + "\\n\"" + args + ");");
  }

  const MappedSystem& sys_;
  const Domain& domain_;
  const ClassDef& cls_;
  const AnalyzedAction& action_;
  std::string args_member_;
};

}  // namespace

// ---------------------------------------------------------------------------
// File generators
// ---------------------------------------------------------------------------

namespace {

std::string banner(const std::string& what, const Domain& domain) {
  return "/* " + what + " for domain '" + domain.name() +
         "' — generated by the xtsoc model compiler. DO NOT EDIT. */\n";
}

std::string gen_iface_header(const MappedSystem& sys) {
  const Domain& domain = sys.domain();
  Writer w;
  w.line(banner("Hardware/software boundary interface", domain));
  std::string guard = upper(domain.name()) + "_IFACE_H";
  w.line("#ifndef " + guard);
  w.line("#define " + guard);
  w.line();
  w.line("#include <stdint.h>");
  w.line();
  w.line("/* Interface digest: both sides must present the same value. */");
  w.line("#define XT_IFACE_DIGEST \"" + sys.interface().digest(domain) + "\"");
  w.line();
  for (const auto& m : sys.interface().messages()) {
    std::string name = upper(domain.cls(m.target_class).name) + "_" +
                       upper(domain.cls(m.target_class).event(m.event).name);
    w.line("/* " + m.name + " (" + mapping::to_string(m.direction) + ") */");
    w.line("#define MSG_" + name + "_OPCODE " + std::to_string(m.opcode) + "u");
    w.line("#define MSG_" + name + "_BITS " + std::to_string(m.payload_bits));
    w.line("#define MSG_" + name + "_BYTES " +
           std::to_string(m.payload_bytes()));
    for (const auto& f : m.fields) {
      std::string fname = f.name == "_target" ? "TARGET" : upper(f.name);
      w.line("#define MSG_" + name + "_F_" + fname + "_OFF " +
             std::to_string(f.offset_bits));
      w.line("#define MSG_" + name + "_F_" + fname + "_W " +
             std::to_string(f.width_bits));
    }
    w.line();
  }
  w.line("/* Bit-level payload packing (LSB-first within the payload). */");
  w.open("static inline void xt_pack(uint8_t* buf, int off, int width, "
         "uint64_t value) {");
  w.open("for (int i = 0; i < width; ++i) {");
  w.line("if ((value >> i) & 1u) buf[(off + i) / 8] |= "
         "(uint8_t)(1u << ((off + i) % 8));");
  w.close();
  w.close();
  w.open("static inline uint64_t xt_unpack(const uint8_t* buf, int off, "
         "int width) {");
  w.line("uint64_t v = 0;");
  w.open("for (int i = 0; i < width; ++i) {");
  w.line("if (buf[(off + i) / 8] & (1u << ((off + i) % 8))) v |= "
         "(1ull << i);");
  w.close();
  w.line("return v;");
  w.close();
  w.line();
  w.line("#endif /* " + guard + " */");
  return w.str();
}

struct ClassNames {
  std::string low;   // consumer
  std::string up;    // CONSUMER
};

ClassNames names_of(const ClassDef& c) { return {lower(c.name), upper(c.name)}; }

/// Declarations shared by model.c and main.c.
std::string gen_model_header(const MappedSystem& sys) {
  const Domain& domain = sys.domain();
  Writer w;
  w.line(banner("Software partition model", domain));
  std::string guard = upper(domain.name()) + "_MODEL_H";
  w.line("#ifndef " + guard);
  w.line("#define " + guard);
  w.line();
  w.line("#include <stdbool.h>");
  w.line("#include <stdint.h>");
  w.line("#include <stdio.h>");
  w.line("#include <stdlib.h>");
  w.line("#include <string.h>");
  w.line();
  w.line("#include \"" + lower(domain.name()) + "_iface.h\"");
  w.line();
  w.line("/* ---- core runtime types ---- */");
  w.line("typedef struct { uint8_t cls; uint32_t index; uint16_t gen; "
         "bool valid; } xt_handle_t;");
  w.line("typedef struct { char s[128]; } xt_str_t;");
  w.line();
  w.open("static inline xt_handle_t xt_null_handle(void) {");
  w.line("xt_handle_t h; h.cls = 0; h.index = 0; h.gen = 0; h.valid = false; "
         "return h;");
  w.close();
  w.open("static inline bool xt_handle_eq(xt_handle_t a, xt_handle_t b) {");
  w.line("if (!a.valid && !b.valid) return true;");
  w.line("return a.valid == b.valid && a.cls == b.cls && a.index == b.index "
         "&& a.gen == b.gen;");
  w.close();
  w.open("static inline uint64_t xt_handle_bits(xt_handle_t h) {");
  w.line("if (!h.valid) return (uint64_t)0xffu << 40;");
  w.line("return ((uint64_t)(h.cls & 0xffu) << 40) | "
         "((uint64_t)(h.index & 0xffffffu) << 16) | (h.gen & 0xffffu);");
  w.close();
  w.open("static inline xt_handle_t xt_handle_from_bits(uint64_t bits) {");
  w.line("xt_handle_t h;");
  w.line("uint64_t cls = (bits >> 40) & 0xffu;");
  w.line("if (cls == 0xffu) return xt_null_handle();");
  w.line("h.cls = (uint8_t)cls; h.index = (uint32_t)((bits >> 16) & "
         "0xffffffu); h.gen = (uint16_t)(bits & 0xffffu); h.valid = true;");
  w.line("return h;");
  w.close();
  w.open("static inline xt_str_t xt_str(const char* s) {");
  w.line("xt_str_t out;");
  w.line("strncpy(out.s, s, sizeof(out.s) - 1);");
  w.line("out.s[sizeof(out.s) - 1] = '\\0';");
  w.line("return out;");
  w.close();
  w.open("static inline xt_str_t xt_str_cat(xt_str_t a, xt_str_t b) {");
  w.line("xt_str_t out = a;");
  w.line("strncat(out.s, b.s, sizeof(out.s) - strlen(out.s) - 1);");
  w.line("return out;");
  w.close();
  w.open("static inline int xt_str_cmp(xt_str_t a, xt_str_t b) {");
  w.line("return strcmp(a.s, b.s);");
  w.close();
  w.line();
  w.line("/* Model ints wrap (two's complement, computed through uint64_t);");
  w.line("   INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0. Division or");
  w.line("   modulo by zero aborts with the abstract executor's message. */");
  const struct {
    const char* name;
    const char* op;
  } kWrapping[] = {{"add", "+"}, {"sub", "-"}, {"mul", "*"}};
  for (const auto& f : kWrapping) {
    w.open(std::string("static inline int64_t xt_i") + f.name +
           "(int64_t a, int64_t b) {");
    w.line(std::string("return (int64_t)((uint64_t)a ") + f.op +
           " (uint64_t)b);");
    w.close();
  }
  w.open("static inline int64_t xt_ineg(int64_t a) {");
  w.line("return (int64_t)(0u - (uint64_t)a);");
  w.close();
  w.open("static inline int64_t xt_idiv(int64_t a, int64_t b) {");
  w.line("if (b == 0) { fputs(\"integer division by zero\\n\", stderr); "
         "abort(); }");
  w.line("return b == -1 ? xt_ineg(a) : a / b;");
  w.close();
  w.open("static inline int64_t xt_imod(int64_t a, int64_t b) {");
  w.line("if (b == 0) { fputs(\"modulo by zero\\n\", stderr); abort(); }");
  w.line("return b == -1 ? 0 : a % b;");
  w.close();
  w.line();
  w.line("enum { XT_LINK_MAX = 256, XT_QUEUE_MAX = 1024 };");
  w.line();

  // Class ids (all classes, so handles can name hardware peers too).
  w.line("/* ---- class ids ---- */");
  for (const auto& c : domain.classes()) {
    w.line("#define XT_CLS_" + upper(c.name) + " " +
           std::to_string(c.id.value()));
  }
  w.line();

  // Per software class: struct, enums, set type, API.
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id)) continue;
    ClassNames n = names_of(c);
    int pool = sys.mapping_of(c.id).max_instances;
    w.line("/* ---- class " + c.name + " (software) ---- */");
    w.line("#define " + n.up + "_POOL " + std::to_string(pool));
    w.open("typedef struct {");
    w.line("bool _alive;");
    w.line("uint16_t _gen;");
    w.line("uint8_t _state;");
    for (const auto& a : c.attributes) {
      w.line(std::string(c_type(a.type)) + " " + a.name + ";");
    }
    w.close("} " + n.low + "_t;");
    w.line("typedef struct { xt_handle_t items[" + n.up +
           "_POOL]; int32_t n; } " + n.low + "_set_t;");
    if (!c.states.empty()) {
      std::string states = "typedef enum { ";
      for (std::size_t i = 0; i < c.states.size(); ++i) {
        if (i > 0) states += ", ";
        states += n.up + "_ST_" + upper(c.states[i].name);
      }
      states += " } " + n.low + "_state_t;";
      w.line(states);
    }
    if (!c.events.empty()) {
      std::string events = "typedef enum { ";
      for (std::size_t i = 0; i < c.events.size(); ++i) {
        if (i > 0) events += ", ";
        events += n.up + "_EV_" + upper(c.events[i].name);
      }
      events += " } " + n.low + "_event_t;";
      w.line(events);
    }
    if (class_has_params(c)) {
      w.open("typedef union {");
      for (const auto& e : c.events) {
        if (!event_has_params(e)) continue;
        std::string fields;
        for (const auto& p : e.params) {
          fields += std::string(c_type(p.type)) + " " + p.name + "; ";
        }
        w.line("struct { " + fields + "} e_" + lower(e.name) + ";");
      }
      w.close("} " + n.low + "_args_t;");
    }
    w.line("extern " + n.low + "_t g_" + n.low + "_pool[" + n.up + "_POOL];");
    w.line("xt_handle_t " + n.low + "_create(void);");
    w.line("void " + n.low + "_delete(xt_handle_t h);");
    w.line("bool " + n.low + "_alive(xt_handle_t h);");
    w.line(n.low + "_t* " + n.low + "_get(xt_handle_t h);");
    w.line("xt_handle_t " + n.low + "_handle_at(int32_t index);");
    w.line();
  }

  // The any-args union over software classes with parameters.
  w.line("/* ---- queued-signal payload ---- */");
  bool any_params = false;
  for (const auto& c : domain.classes()) {
    if (!sys.partition().is_hardware(c.id) && class_has_params(c)) {
      any_params = true;
    }
  }
  if (any_params) {
    w.open("typedef union {");
    for (const auto& c : domain.classes()) {
      if (sys.partition().is_hardware(c.id) || !class_has_params(c)) continue;
      ClassNames n = names_of(c);
      w.line(n.low + "_args_t " + n.low + ";");
    }
    w.close("} xt_any_args_t;");
  } else {
    w.line("typedef struct { int _unused; } xt_any_args_t;");
  }
  w.line();
  w.line("/* ---- signal queue (xtUML: self-directed first) ---- */");
  w.line("void xt_send(uint8_t cls, uint8_t ev, xt_handle_t target, "
         "bool self_directed, uint64_t delay, const xt_any_args_t* args);");
  w.line("bool xt_pump_one(void);");
  w.line("void xt_run(void);");
  w.line("uint64_t xt_now(void);");
  w.line();
  w.line("/* ---- bus (filled in by the platform glue) ---- */");
  w.line("typedef void (*xt_bus_tx_fn)(uint32_t opcode, const uint8_t* "
         "payload, uint32_t nbytes);");
  w.line("void xt_bus_set_tx(xt_bus_tx_fn fn);");
  w.line("void xt_bus_rx(uint32_t opcode, const uint8_t* payload);");
  w.line();

  // Association API.
  for (const auto& a : domain.associations()) {
    if (sys.partition().is_hardware(a.a.cls)) continue;  // hw assoc lives in vhdl
    std::string an = lower(a.name);
    w.line("/* association " + a.name + ": " + domain.cls(a.a.cls).name +
           " -- " + domain.cls(a.b.cls).name + " */");
    w.line("void " + an + "_relate(xt_handle_t a, xt_handle_t b);");
    w.line("void " + an + "_unrelate(xt_handle_t a, xt_handle_t b);");
    w.line("int32_t " + an + "_related(xt_handle_t from, xt_handle_t* out, "
           "int32_t cap);");
  }
  w.line();

  // Dispatch prototypes.
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id) || c.states.empty()) continue;
    ClassNames n = names_of(c);
    w.line("void " + n.low + "_dispatch(xt_handle_t self, " + n.low +
           "_event_t ev, const xt_any_args_t* args);");
  }
  w.line();
  w.line("#endif /* " + guard + " */");
  return w.str();
}

}  // namespace

Output generate_c(const MappedSystem& sys, DiagnosticSink& sink) {
  const Domain& domain = sys.domain();
  Output out;
  std::string dn = lower(domain.name());

  out.files.push_back({"sw/" + dn + "_iface.h", gen_iface_header(sys)});
  out.files.push_back({"sw/" + dn + "_model.h", gen_model_header(sys)});

  // ---- model.c ----
  Writer w;
  w.line(banner("Software partition implementation", domain));
  w.line("#include \"" + dn + "_model.h\"");
  w.line();

  // Pools + per-class lifecycle.
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id)) continue;
    ClassNames n = names_of(c);
    w.line(n.low + "_t g_" + n.low + "_pool[" + n.up + "_POOL];");
    w.open("xt_handle_t " + n.low + "_handle_at(int32_t index) {");
    w.line("xt_handle_t h;");
    w.line("h.cls = XT_CLS_" + n.up + "; h.index = (uint32_t)index;");
    w.line("h.gen = g_" + n.low + "_pool[index]._gen; h.valid = true;");
    w.line("return h;");
    w.close();
    w.open("bool " + n.low + "_alive(xt_handle_t h) {");
    w.line("return h.valid && h.cls == XT_CLS_" + n.up + " && h.index < " +
           n.up + "_POOL && g_" + n.low + "_pool[h.index]._alive && g_" +
           n.low + "_pool[h.index]._gen == h.gen;");
    w.close();
    w.open(n.low + "_t* " + n.low + "_get(xt_handle_t h) {");
    w.line("return " + n.low + "_alive(h) ? &g_" + n.low +
           "_pool[h.index] : (" + n.low + "_t*)0;");
    w.close();
    w.open("xt_handle_t " + n.low + "_create(void) {");
    w.open("for (int32_t i = 0; i < (int32_t)" + n.up + "_POOL; ++i) {");
    w.line("if (g_" + n.low + "_pool[i]._alive) continue;");
    w.line(n.low + "_t* p = &g_" + n.low + "_pool[i];");
    w.line("p->_alive = true;");
    if (!c.states.empty()) {
      w.line("p->_state = (uint8_t)" + n.up + "_ST_" +
             upper(c.states[c.initial_state.value()].name) + ";");
    } else {
      w.line("p->_state = 0;");
    }
    for (const auto& a : c.attributes) {
      w.line("p->" + a.name + " = " + c_default(a) + ";");
    }
    w.line("return " + n.low + "_handle_at(i);");
    w.close();
    w.line("fprintf(stderr, \"pool of '" + c.name +
           "' is full (%d instances; raise the maxInstances mark)\\n\", " +
           n.up + "_POOL);");
    w.line("abort();");
    w.close();
    w.open("void " + n.low + "_delete(xt_handle_t h) {");
    w.line(n.low + "_t* p = " + n.low + "_get(h);");
    w.line("if (!p) return;");
    w.line("p->_alive = false;");
    w.line("p->_gen++;");
    w.close();
    w.line();
  }

  // Associations.
  for (const auto& a : domain.associations()) {
    if (sys.partition().is_hardware(a.a.cls)) continue;
    std::string an = lower(a.name);
    w.line("typedef struct { xt_handle_t a, b; bool used; } " + an +
           "_link_t;");
    w.line("static " + an + "_link_t g_" + an + "_links[XT_LINK_MAX];");
    w.open("void " + an + "_relate(xt_handle_t a, xt_handle_t b) {");
    w.open("for (int32_t i = 0; i < XT_LINK_MAX; ++i) {");
    w.line("if (g_" + an + "_links[i].used) continue;");
    w.line("g_" + an + "_links[i].used = true;");
    w.line("g_" + an + "_links[i].a = a;");
    w.line("g_" + an + "_links[i].b = b;");
    w.line("return;");
    w.close();
    w.line("fprintf(stderr, \"link table of '" + a.name +
           "' is full (%d links; raise XT_LINK_MAX)\\n\", XT_LINK_MAX);");
    w.line("abort();");
    w.close();
    w.open("void " + an + "_unrelate(xt_handle_t a, xt_handle_t b) {");
    w.open("for (int32_t i = 0; i < XT_LINK_MAX; ++i) {");
    w.line("if (!g_" + an + "_links[i].used) continue;");
    w.line("bool fwd = xt_handle_eq(g_" + an + "_links[i].a, a) && "
           "xt_handle_eq(g_" + an + "_links[i].b, b);");
    w.line("bool rev = xt_handle_eq(g_" + an + "_links[i].a, b) && "
           "xt_handle_eq(g_" + an + "_links[i].b, a);");
    w.line("if (fwd || rev) { g_" + an + "_links[i].used = false; return; }");
    w.close();
    w.close();
    w.open("int32_t " + an + "_related(xt_handle_t from, xt_handle_t* out, "
           "int32_t cap) {");
    w.line("int32_t n = 0;");
    w.open("for (int32_t i = 0; i < XT_LINK_MAX && n < cap; ++i) {");
    w.line("if (!g_" + an + "_links[i].used) continue;");
    w.line("if (xt_handle_eq(g_" + an + "_links[i].a, from)) out[n++] = g_" +
           an + "_links[i].b;");
    w.line("else if (xt_handle_eq(g_" + an + "_links[i].b, from)) out[n++] = "
           "g_" + an + "_links[i].a;");
    w.close();
    w.line("return n;");
    w.close();
    w.line();
  }

  // Queue runtime.
  w.line("/* ---- signal queue ---- */");
  w.line("typedef struct { bool used; uint8_t cls; uint8_t ev; bool self_dir;");
  w.line("                 uint64_t due; uint64_t seq; xt_handle_t target;");
  w.line("                 xt_any_args_t args; } xt_event_t;");
  w.line("static xt_event_t g_queue[XT_QUEUE_MAX];");
  w.line("static uint64_t g_now, g_seq;");
  // Class names by id, for the overflow message (C forbids an empty array).
  std::string class_names;
  for (const auto& c : domain.classes()) {
    class_names += (class_names.empty() ? "\"" : ", \"") + c.name + "\"";
  }
  if (class_names.empty()) class_names = "0";
  w.line("static const char* const g_class_names[] = {" + class_names + "};");
  w.line("uint64_t xt_now(void) { return g_now; }");
  w.open("void xt_send(uint8_t cls, uint8_t ev, xt_handle_t target, "
         "bool self_directed, uint64_t delay, const xt_any_args_t* args) {");
  w.open("for (int32_t i = 0; i < XT_QUEUE_MAX; ++i) {");
  w.line("if (g_queue[i].used) continue;");
  w.line("g_queue[i].used = true;");
  w.line("g_queue[i].cls = cls; g_queue[i].ev = ev; g_queue[i].target = "
         "target;");
  w.line("g_queue[i].self_dir = self_directed;");
  w.line("g_queue[i].due = g_now + delay; g_queue[i].seq = g_seq++;");
  w.line("if (args) g_queue[i].args = *args;");
  w.line("else memset(&g_queue[i].args, 0, sizeof(g_queue[i].args));");
  w.line("return;");
  w.close();
  w.line("fprintf(stderr, \"signal queue is full (%d signals; raise "
         "XT_QUEUE_MAX) sending to '%s'\\n\", XT_QUEUE_MAX, "
         "g_class_names[cls]);");
  w.line("abort();");
  w.close();
  w.line();
  w.line("static void xt_dispatch(const xt_event_t* e);");
  w.open("bool xt_pump_one(void) {");
  w.line("/* xtUML discipline: oldest due self-directed event first, then");
  w.line("   oldest due external event. */");
  w.line("int32_t best = -1;");
  w.open("for (int pass = 0; pass < 2 && best < 0; ++pass) {");
  w.open("for (int32_t i = 0; i < XT_QUEUE_MAX; ++i) {");
  w.line("if (!g_queue[i].used || g_queue[i].due > g_now) continue;");
  w.line("if ((pass == 0) != g_queue[i].self_dir) continue;");
  w.line("if (best < 0 || g_queue[i].seq < g_queue[best].seq) best = i;");
  w.close();
  w.close();
  w.line("if (best < 0) return false;");
  w.line("xt_event_t e = g_queue[best];");
  w.line("g_queue[best].used = false;");
  w.line("xt_dispatch(&e);");
  w.line("return true;");
  w.close();
  w.open("void xt_run(void) {");
  w.open("for (;;) {");
  w.line("while (xt_pump_one()) { }");
  w.line("/* advance to the next timer deadline, if any */");
  w.line("uint64_t next = 0; bool have = false;");
  w.open("for (int32_t i = 0; i < XT_QUEUE_MAX; ++i) {");
  w.line("if (!g_queue[i].used) continue;");
  w.line("if (!have || g_queue[i].due < next) { next = g_queue[i].due; "
         "have = true; }");
  w.close();
  w.line("if (!have) return;");
  w.line("g_now = next;");
  w.close();
  w.close();
  w.line();

  // Bus plumbing.
  w.line("/* ---- bus ---- */");
  w.line("static xt_bus_tx_fn g_bus_tx;");
  w.line("void xt_bus_set_tx(xt_bus_tx_fn fn) { g_bus_tx = fn; }");
  for (const auto& m : sys.interface().messages()) {
    if (m.direction != mapping::Direction::kToHardware) continue;
    const ClassDef& target = domain.cls(m.target_class);
    const xtuml::EventDef& ev = target.event(m.event);
    std::string mname = upper(target.name) + "_" + upper(ev.name);
    std::string fn = "void xt_bus_send_" + lower(target.name) + "_" +
                     lower(ev.name) + "(xt_handle_t target";
    for (const auto& p : ev.params) {
      fn += std::string(", ") + c_type(p.type) + " " + p.name;
    }
    fn += ", uint64_t delay) {";
    w.open(fn);
    w.line("(void)delay; /* carried by the platform glue if supported */");
    w.line("uint8_t buf[MSG_" + mname + "_BYTES];");
    w.line("memset(buf, 0, sizeof(buf));");
    w.line("xt_pack(buf, MSG_" + mname + "_F_TARGET_OFF, MSG_" + mname +
           "_F_TARGET_W, xt_handle_bits(target));");
    for (const auto& p : ev.params) {
      std::string pf = "MSG_" + mname + "_F_" + upper(p.name);
      std::string raw;
      switch (p.type) {
        case DataType::kBool:
          raw = p.name + " ? 1u : 0u";
          break;
        case DataType::kInt:
          raw = "(uint64_t)" + p.name;
          break;
        case DataType::kReal: {
          raw = "xt_real_bits(" + p.name + ")";
          break;
        }
        case DataType::kInstRef:
          raw = "xt_handle_bits(" + p.name + ")";
          break;
        default:
          raw = "0";
      }
      w.line("xt_pack(buf, " + pf + "_OFF, " + pf + "_W, " + raw + ");");
    }
    w.line("if (g_bus_tx) g_bus_tx(MSG_" + mname + "_OPCODE, buf, "
           "sizeof(buf));");
    w.close();
  }
  w.line();
  w.open("void xt_bus_rx(uint32_t opcode, const uint8_t* payload) {");
  w.open("switch (opcode) {");
  for (const auto& m : sys.interface().messages()) {
    if (m.direction != mapping::Direction::kToSoftware) continue;
    const ClassDef& target = domain.cls(m.target_class);
    const xtuml::EventDef& ev = target.event(m.event);
    ClassNames n = names_of(target);
    std::string mname = n.up + "_" + upper(ev.name);
    w.open("case MSG_" + mname + "_OPCODE: {");
    w.line("xt_handle_t tgt = xt_handle_from_bits(xt_unpack(payload, MSG_" +
           mname + "_F_TARGET_OFF, MSG_" + mname + "_F_TARGET_W));");
    std::string args_lit = "NULL";
    if (event_has_params(ev)) {
      w.line("xt_any_args_t a;");
      w.line("memset(&a, 0, sizeof(a));");
      for (const auto& p : ev.params) {
        std::string pf = "MSG_" + mname + "_F_" + upper(p.name);
        std::string dst = "a." + n.low + ".e_" + lower(ev.name) + "." + p.name;
        std::string raw = "xt_unpack(payload, " + pf + "_OFF, " + pf + "_W)";
        switch (p.type) {
          case DataType::kBool:
            w.line(dst + " = " + raw + " != 0;");
            break;
          case DataType::kInt:
            w.line(dst + " = xt_sext(" + raw + ", " + pf + "_W);");
            break;
          case DataType::kReal:
            w.line(dst + " = xt_real_from_bits(" + raw + ");");
            break;
          case DataType::kInstRef:
            w.line(dst + " = xt_handle_from_bits(" + raw + ");");
            break;
          default:
            break;
        }
      }
      args_lit = "&a";
    }
    w.line("xt_send(XT_CLS_" + n.up + ", (uint8_t)" + n.up + "_EV_" +
           upper(ev.name) + ", tgt, false, 0, " + args_lit + ");");
    w.line("break;");
    w.close();
  }
  w.line("default: break;");
  w.close();
  w.close();
  w.line();

  // Per-class dispatch + actions.
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id) || c.states.empty()) continue;
    ClassNames n = names_of(c);
    const oal::CompiledClass& cc = sys.compiled().cls(c.id);

    // Action functions.
    for (const auto& st : c.states) {
      const AnalyzedAction& action = cc.state_actions[st.id.value()];
      std::string member = entry_member(c, st.id);
      w.open("static void " + n.low + "_act_" + lower(st.name) +
             "(xt_handle_t self, const xt_any_args_t* args) {");
      w.line("(void)self; (void)args;");
      if (!c.state(st.id).action_source.empty()) {
        w.line("/* OAL:");
        for (const auto& src_line :
             split(trim(c.state(st.id).action_source), '\n')) {
          w.line("     " + std::string(trim(src_line)));
        }
        w.line("*/");
      }
      CTranslator tr(sys, c, action,
                     member.empty() ? std::string("_none")
                                    : (n.low + ".e_" + member));
      tr.emit_body(w);
      w.close();
    }

    // Transition table + dispatch.
    w.open("void " + n.low + "_dispatch(xt_handle_t self, " + n.low +
           "_event_t ev, const xt_any_args_t* args) {");
    w.line(n.low + "_t* me = " + n.low + "_get(self);");
    w.line("if (!me) return; /* signal to a deleted instance: dropped */");
    w.line("static const uint8_t next_state[" +
           std::to_string(c.states.size()) + "][" +
           std::to_string(c.events.size() == 0 ? 1 : c.events.size()) + "] = {");
    for (const auto& st : c.states) {
      std::string row = "  { ";
      for (std::size_t e = 0; e < std::max<std::size_t>(c.events.size(), 1);
           ++e) {
        if (e > 0) row += ", ";
        const xtuml::TransitionDef* t =
            e < c.events.size()
                ? c.transition_on(st.id,
                                  EventId(static_cast<EventId::underlying_type>(e)))
                : nullptr;
        row += t ? std::to_string(t->to.value()) : "0xFFu";
      }
      row += " }, /* " + st.name + " */";
      w.line(row);
    }
    w.line("};");
    w.line("uint8_t to = next_state[me->_state][(int)ev];");
    if (c.fallback == xtuml::EventFallback::kCantHappen) {
      w.line("if (to == 0xFFu) { fprintf(stderr, \"can't happen\\n\"); "
             "return; }");
    } else {
      w.line("if (to == 0xFFu) return; /* event ignored */");
    }
    w.line("me->_state = to;");
    w.open("switch (to) {");
    for (const auto& st : c.states) {
      w.line("case " + std::to_string(st.id.value()) + ": " + n.low + "_act_" +
             lower(st.name) + "(self, args); break;");
    }
    w.line("default: break;");
    w.close();
    for (const auto& st : c.states) {
      if (st.is_final) {
        w.line("if (me->_state == " + std::to_string(st.id.value()) + " && " +
               n.low + "_alive(self)) " + n.low + "_delete(self);");
        break;
      }
    }
    w.close();
    w.line();
  }

  // Cross-class pump dispatch.
  w.open("static void xt_dispatch(const xt_event_t* e) {");
  w.open("switch (e->cls) {");
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id) || c.states.empty()) continue;
    ClassNames n = names_of(c);
    w.line("case XT_CLS_" + n.up + ": " + n.low + "_dispatch(e->target, (" +
           n.low + "_event_t)e->ev, &e->args); break;");
  }
  w.line("default: break;");
  w.close();
  w.close();

  std::string model_c = w.str();

  // Helpers referenced by bus code; prepend after includes.
  std::string helpers =
      "\nstatic inline uint64_t xt_real_bits(double d) {\n"
      "  uint64_t u; memcpy(&u, &d, sizeof(u)); return u;\n"
      "}\n"
      "static inline double xt_real_from_bits(uint64_t u) {\n"
      "  double d; memcpy(&d, &u, sizeof(d)); return d;\n"
      "}\n"
      "static inline int64_t xt_sext(uint64_t v, int width) {\n"
      "  if (width < 64 && (v & (1ull << (width - 1))))\n"
      "    v |= ~((1ull << width) - 1);\n"
      "  return (int64_t)v;\n"
      "}\n\n";
  const std::string include_line = "#include \"" + dn + "_model.h\"\n";
  std::size_t insert_at = model_c.find(include_line);
  if (insert_at != std::string::npos) {
    model_c.insert(insert_at + include_line.size(), helpers);
  } else {
    model_c += helpers;
  }
  out.files.push_back({"sw/" + dn + "_model.c", std::move(model_c)});

  // ---- main.c ----
  Writer m;
  m.line(banner("Entry point skeleton", domain));
  m.line("#include \"" + dn + "_model.h\"");
  m.line();
  m.open("int main(void) {");
  m.line("/* Create the initial population here, e.g.: */");
  for (const auto& c : domain.classes()) {
    if (sys.partition().is_hardware(c.id)) continue;
    m.line("/*   xt_handle_t " + lower(c.name) + "0 = " + lower(c.name) +
           "_create(); */");
  }
  m.line("/* Inject initial signals with xt_send(...), then: */");
  m.line("xt_run();");
  m.line("return 0;");
  m.close();
  out.files.push_back({"sw/" + dn + "_main.c", m.str()});

  (void)sink;
  return out;
}

}  // namespace xtsoc::codegen
