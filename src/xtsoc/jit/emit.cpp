#include "xtsoc/jit/emit.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>

namespace xtsoc::jit {

namespace {

using oal::CodeBlock;
using oal::Instr;
using oal::Op;

// --- bytecode shape analysis -------------------------------------------------

/// Stack requirement (values consumed) and net effect of one instruction.
void stack_effect(const Instr& i, int* need, int* net) {
  switch (i.op) {
    case Op::kPushConst:
    case Op::kLoadLocal:
    case Op::kLoadParam:
    case Op::kLoadSelf:
    case Op::kLoadSelected:
    case Op::kCreate:
    case Op::kSelectAll:
      *need = 0;
      *net = 1;
      return;
    case Op::kStoreLocal:
    case Op::kDelete:
    case Op::kJumpIfFalse:
      *need = 1;
      *net = -1;
      return;
    case Op::kGetAttr:
    case Op::kNot:
    case Op::kNeg:
    case Op::kCard:
    case Op::kIsEmpty:
    case Op::kWiden:
    case Op::kRelated:
    case Op::kFilter:
    case Op::kSetToRef:
    case Op::kMemRead:
    case Op::kNeedTarget:
      *need = 1;
      *net = 0;
      return;
    case Op::kSetAttr:
    case Op::kRelate:
    case Op::kUnrelate:
    case Op::kMemWrite:
      *need = 2;
      *net = -2;
      return;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kIndexSet:
      *need = 2;
      *net = -1;
      return;
    case Op::kJump:
    case Op::kReturn:
    case Op::kTick:
      *need = 0;
      *net = 0;
      return;
    case Op::kGenerate: {
      const int argc = static_cast<int>(i.b >> 1);
      const int has_delay = static_cast<int>(i.b & 1u);
      *need = argc + 1 + has_delay;
      *net = -*need;
      return;
    }
    case Op::kLog:
      *need = static_cast<int>(i.a);
      *net = -*need;
      return;
  }
  *need = 0;
  *net = 0;
}

struct BlockShape {
  std::vector<int> depth;       ///< entry stack depth per pc, -1 unreachable
  std::vector<char> is_target;  ///< pc is a jump target
  int max_depth = 0;
};

/// Worklist stack-depth analysis. `is_sub` additionally requires every exit
/// (kReturn or falling off the end) to leave exactly the one predicate
/// result the filter loop consumes. Inconsistent depths at a merge point —
/// which structured compile_bytecode output never produces — fail the
/// analysis and the action stays on the walker.
bool analyze(const CodeBlock& b, bool is_sub, BlockShape* shape,
             std::string* err) {
  const std::size_t n = b.code.size();
  shape->depth.assign(n, -1);
  shape->is_target.assign(n, 0);
  shape->max_depth = 0;
  if (n == 0) {
    if (is_sub) {
      *err = "empty filter predicate block";
      return false;
    }
    return true;
  }
  std::vector<std::size_t> work;
  auto flow = [&](std::size_t pc, int d) -> bool {
    if (pc > n) {
      *err = "jump past end of block";
      return false;
    }
    if (pc == n) {
      // Falling off the end behaves like kReturn.
      if (is_sub && d != 1) {
        *err = "filter predicate exits at depth " + std::to_string(d);
        return false;
      }
      return true;
    }
    if (shape->depth[pc] == -1) {
      shape->depth[pc] = d;
      work.push_back(pc);
      return true;
    }
    if (shape->depth[pc] != d) {
      *err = "inconsistent stack depth at pc " + std::to_string(pc);
      return false;
    }
    return true;
  };
  if (!flow(0, 0)) return false;
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Instr& i = b.code[pc];
    const int d = shape->depth[pc];
    int need = 0, net = 0;
    stack_effect(i, &need, &net);
    if (d < need) {
      *err = "stack underflow at pc " + std::to_string(pc);
      return false;
    }
    const int d2 = d + net;
    if (d2 > shape->max_depth) shape->max_depth = d2;
    switch (i.op) {
      case Op::kJump:
        shape->is_target[i.a] = 1;
        if (!flow(i.a, d2)) return false;
        break;
      case Op::kJumpIfFalse:
        shape->is_target[i.a] = 1;
        if (!flow(i.a, d2)) return false;
        if (!flow(pc + 1, d2)) return false;
        break;
      case Op::kReturn:
        if (is_sub && d != 1) {
          *err = "filter predicate returns at depth " + std::to_string(d);
          return false;
        }
        break;
      default:
        if (!flow(pc + 1, d2)) return false;
        break;
    }
  }
  return true;
}

int max_frame_size(const CodeBlock& b) {
  int f = b.frame_size;
  for (const CodeBlock& sub : b.subs) {
    const int s = max_frame_size(sub);
    if (s > f) f = s;
  }
  return f;
}

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

// --- function emitter --------------------------------------------------------

class FnEmitter {
public:
  explicit FnEmitter(std::string* err) : err_(err) {}

  /// Append `block` as a function named `fn_name` (an XjActionFn) to *out.
  /// On failure *out is unchanged and *err says why.
  bool emit(const CodeBlock& block, const std::string& fn_name,
            std::string* out) {
    decls_.clear();
    body_.clear();
    next_site_ = 0;
    local_names_ = &block.local_names;
    const int frame = max_frame_size(block);
    for (int i = 0; i < frame; ++i) {
      // Built with += rather than operator+ to sidestep GCC 12's spurious
      // -Wrestrict on inlined literal-plus-rvalue string concatenation.
      std::string f = "f";
      f += std::to_string(i);
      decl("XjValue " + f + ";");
      stmt(f + " = xj_unset();");
    }
    if (!emit_block(block, "", "Lxj_done")) return false;
    *out += "static uint64_t " + fn_name +
            "(XjHost* h, const XjHostOps* o, XjValue self, const XjValue* p, "
            "uint64_t max_ops) {\n"
            "  (void)h; (void)o; (void)self; (void)p; (void)max_ops;\n"
            "  uint64_t ops = 0u;\n"
            "  XjValue xsel; xsel = xj_null();\n";
    *out += decls_;
    *out += body_;
    *out +=
        "Lxj_done: ;\n"
        "  return ops;\n"
        "Lxj_lim: ;\n"
        "  xj_raise(h, o, XJ_ERR_OP_LIMIT);\n"
        "}\n\n";
    return true;
  }

private:
  void decl(const std::string& s) { decls_ += "  " + s + "\n"; }
  void stmt(const std::string& s) { body_ += "  " + s + "\n"; }
  void label(const std::string& s) { body_ += s + ": ;\n"; }

  /// Emit one code block. `pfx` uniquifies labels and stack locals;
  /// `ret_label` is where kReturn lands (function epilogue for the
  /// top-level block, the predicate-result check for filter sub-blocks).
  bool emit_block(const CodeBlock& b, const std::string& pfx,
                  const std::string& ret_label) {
    BlockShape shape;
    if (!analyze(b, !pfx.empty(), &shape, err_)) return false;
    const std::size_t n = b.code.size();

    for (int i = 0; i < shape.max_depth; ++i) {
      decl("XjValue " + pfx + "s" + std::to_string(i) + ";");
    }
    auto S = [&](int d) { return pfx + "s" + std::to_string(d); };

    // Basic-block leaders: entry, jump targets, fall-throughs of branches.
    std::vector<char> leader(n, 0);
    if (n > 0) leader[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Instr& i = b.code[pc];
      if (i.op == Op::kJump || i.op == Op::kJumpIfFalse ||
          i.op == Op::kReturn) {
        if (pc + 1 < n) leader[pc + 1] = 1;
      }
      if (i.op == Op::kJump || i.op == Op::kJumpIfFalse) {
        leader[i.a] = 1;
      }
    }

    for (std::size_t pc = 0; pc < n; ++pc) {
      if (shape.depth[pc] < 0) continue;  // unreachable (e.g. after return)
      if (shape.is_target[pc]) label("L" + pfx + std::to_string(pc));
      if (leader[pc]) {
        // Per-block op accounting: the block's walker ticks are added once
        // on entry (so totals match the walker on completion); the limit
        // check runs once per block, so a runaway loop still trips it —
        // at worst one basic block earlier than the walker's per-tick
        // check would have (see docs/PERF.md).
        std::uint64_t k = 0;
        for (std::size_t q = pc; q < n && (q == pc || !leader[q]); ++q) {
          if (shape.depth[q] >= 0) k += b.code[q].ticks;
        }
        if (k != 0) {
          stmt("ops += " + std::to_string(k) +
               "u; if (ops > max_ops) goto Lxj_lim;");
        }
      }
      if (!emit_instr(b, pfx, ret_label, pc, shape.depth[pc], S)) {
        return false;
      }
    }
    return true;
  }

  template <class SFn>
  bool emit_instr(const CodeBlock& b, const std::string& pfx,
                  const std::string& ret_label, std::size_t pc, int d,
                  SFn&& S) {
    const Instr& i = b.code[pc];
    const std::string a = std::to_string(i.a) + "u";
    switch (i.op) {
      case Op::kPushConst: {
        const xtuml::ScalarValue& c = b.constants[i.a];
        switch (c.index()) {
          case 0:
            stmt(S(d) + " = xj_b(" +
                 (std::get<bool>(c) ? std::string("1") : std::string("0")) +
                 ");");
            break;
          case 1:
            stmt(S(d) + " = xj_i(" + int_literal(std::get<std::int64_t>(c)) +
                 ");");
            break;
          case 2:
            stmt(S(d) + " = xj_r(" + real_literal(std::get<double>(c)) + ");");
            break;
          default: {
            const std::string& s = std::get<std::string>(c);
            stmt(S(d) + " = o->str_const(h, " + str_literal(s) + ", " +
                 std::to_string(s.size()) + "u);");
            break;
          }
        }
        break;
      }
      case Op::kLoadLocal:
        // Compiler temporaries (slots past the named locals) are always
        // written before they are read.
        if (i.a < local_names_->size()) {
          stmt("if (f" + std::to_string(i.a) +
               ".tag == XJ_TAG_UNSET) xj_unset_read(h, o, " +
               str_literal((*local_names_)[i.a]) + ");");
        }
        stmt(S(d) + " = f" + std::to_string(i.a) + ";");
        break;
      case Op::kStoreLocal:
        stmt("f" + std::to_string(i.a) + " = " + S(d - 1) + ";");
        break;
      case Op::kLoadParam:
        stmt(S(d) + " = p[" + std::to_string(i.a) + "];");
        break;
      case Op::kLoadSelf:
        stmt(S(d) + " = self;");
        break;
      case Op::kLoadSelected:
        stmt(S(d) + " = xsel;");
        break;
      case Op::kGetAttr:
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt(S(d - 1) + " = o->get_attr(h, " + S(d - 1) + ", " + a + ");");
        break;
      case Op::kSetAttr:
        // Walker conversion order: object first (top), then the value goes
        // out.
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt("o->set_attr(h, " + S(d - 1) + ", " + a + ", " + S(d - 2) + ");");
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        static const char* const kFn[] = {"xj_add", "xj_sub", "xj_mul",
                                          "xj_div", "xj_mod"};
        const int idx =
            static_cast<int>(i.op) - static_cast<int>(Op::kAdd);
        stmt(std::string(kFn[idx]) + "(h, o, " + S(d - 2) + ", " + S(d - 1) +
             ");");
        break;
      }
      case Op::kEq:
        stmt(S(d - 2) + " = xj_b(xj_eq(h, o, " + S(d - 2) + ", " + S(d - 1) +
             "));");
        break;
      case Op::kNe:
        stmt(S(d - 2) + " = xj_b(!xj_eq(h, o, " + S(d - 2) + ", " + S(d - 1) +
             "));");
        break;
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        static const char* const kRel[] = {"< 0", "<= 0", "> 0", ">= 0"};
        const int idx = static_cast<int>(i.op) - static_cast<int>(Op::kLt);
        stmt(S(d - 2) + " = xj_b(xj_cmp(h, o, " + S(d - 2) + ", " + S(d - 1) +
             ") " + kRel[idx] + ");");
        break;
      }
      case Op::kNot:
        stmt(S(d - 1) + " = xj_b(!xj_as_bool(h, o, " + S(d - 1) + "));");
        break;
      case Op::kNeg:
        stmt("if (" + S(d - 1) + ".tag == XJ_TAG_INT) { " + S(d - 1) +
             ".u.i = xj_neg(" + S(d - 1) + ".u.i); } else { double t = "
             "xj_as_real(h, o, " + S(d - 1) + "); " + S(d - 1) +
             ".tag = XJ_TAG_REAL; " + S(d - 1) + ".u.d = -t; }");
        break;
      case Op::kCard:
        stmt("if (" + S(d - 1) + ".tag == XJ_TAG_SET) { " + S(d - 1) +
             " = xj_i(o->set_size(h, " + S(d - 1) + ")); } else { "
             "xj_need_h(h, o, " + S(d - 1) + "); " + S(d - 1) + " = xj_i(" +
             S(d - 1) + ".u.h.cls == XJ_CLS_NULL ? 0 : 1); }");
        break;
      case Op::kIsEmpty:
        stmt("if (" + S(d - 1) + ".tag == XJ_TAG_SET) { " + S(d - 1) +
             " = xj_b(o->set_size(h, " + S(d - 1) + ") == 0); } else { "
             "xj_need_h(h, o, " + S(d - 1) + "); " + S(d - 1) + " = xj_b(" +
             S(d - 1) + ".u.h.cls == XJ_CLS_NULL || !o->handle_alive(h, " +
             S(d - 1) + ")); }");
        break;
      case Op::kIndexSet: {
        const std::string u = site();
        decl("int64_t gi" + u + ";");
        stmt("gi" + u + " = xj_as_int(h, o, " + S(d - 1) + ");");
        stmt("xj_need_set(h, o, " + S(d - 2) + ");");
        stmt(S(d - 2) + " = o->set_at(h, " + S(d - 2) + ", gi" + u + ");");
        break;
      }
      case Op::kWiden:
        stmt("if (" + S(d - 1) + ".tag == XJ_TAG_INT) { double t = (double)" +
             S(d - 1) + ".u.i; " + S(d - 1) + ".tag = XJ_TAG_REAL; " +
             S(d - 1) + ".u.d = t; }");
        break;
      case Op::kJump:
        stmt("goto L" + pfx + std::to_string(i.a) + ";");
        break;
      case Op::kJumpIfFalse:
        stmt("if (!xj_as_bool(h, o, " + S(d - 1) + ")) goto L" + pfx +
             std::to_string(i.a) + ";");
        break;
      case Op::kReturn:
        stmt("goto " + ret_label + ";");
        break;
      case Op::kCreate:
        stmt(S(d) + " = o->create_inst(h, " + a + ");");
        break;
      case Op::kDelete:
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt("o->delete_inst(h, " + S(d - 1) + ");");
        break;
      case Op::kRelate:
      case Op::kUnrelate:
        // Walker conversion order: the a-side handle first.
        stmt("xj_need_h(h, o, " + S(d - 2) + ");");
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt(std::string("o->") +
             (i.op == Op::kRelate ? "relate" : "unrelate") + "(h, " +
             S(d - 2) + ", " + S(d - 1) + ", " + a + ");");
        break;
      case Op::kSelectAll:
        stmt(S(d) + " = o->select_all(h, " + a + ");");
        break;
      case Op::kRelated:
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt(S(d - 1) + " = o->related(h, " + S(d - 1) + ", " + a + ");");
        break;
      case Op::kFilter: {
        const std::string u = site();
        const std::string sub_pfx = pfx + "f" + u + "_";
        decl("XjValue fin" + u + "; XjValue fout" + u + "; XjValue fsv" + u +
             ";");
        decl("int64_t fn" + u + "; int64_t fi" + u + ";");
        stmt("xj_need_set(h, o, " + S(d - 1) + ");");
        stmt("fin" + u + " = " + S(d - 1) + ";");
        stmt("fout" + u + " = o->set_new(h);");
        stmt("fsv" + u + " = xsel;");
        stmt("fn" + u + " = o->set_size(h, fin" + u + ");");
        stmt("fi" + u + " = 0;");
        label("Lfh" + u);
        stmt("if (fi" + u + " >= fn" + u + ") goto Lfe" + u + ";");
        stmt("xsel = o->set_at(h, fin" + u + ", fi" + u + ");");
        if (!emit_block(b.subs[i.a], sub_pfx, "Lfr" + u)) return false;
        label("Lfr" + u);
        stmt("if (xj_as_bool(h, o, " + sub_pfx + "s0)) { o->set_append(h, "
             "fout" + u + ", xsel); }");
        stmt("fi" + u + " += 1; goto Lfh" + u + ";");
        label("Lfe" + u);
        stmt("xsel = fsv" + u + ";");
        stmt(S(d - 1) + " = fout" + u + ";");
        break;
      }
      case Op::kSetToRef:
        stmt("xj_need_set(h, o, " + S(d - 1) + ");");
        stmt(S(d - 1) + " = o->set_first(h, " + S(d - 1) + ");");
        break;
      case Op::kNeedTarget:
        stmt("xj_need_h(h, o, " + S(d - 1) + ");");
        stmt("if (" + S(d - 1) +
             ".u.h.cls == XJ_CLS_NULL) xj_raise(h, o, XJ_ERR_GEN_NULL);");
        break;
      case Op::kGenerate: {
        // Stack: target (checked by kNeedTarget), args, [delay].
        const std::string u = site();
        const int argc = static_cast<int>(i.b >> 1);
        const int has_delay = static_cast<int>(i.b & 1u);
        const int arg_base = d - has_delay - argc;
        const int t_idx = arg_base - 1;
        decl("int64_t gd" + u + ";");
        if (argc > 0) {
          decl("XjValue ga" + u + "[" + std::to_string(argc) + "];");
        }
        stmt("gd" + u + " = 0;");
        if (has_delay != 0) {
          stmt("gd" + u + " = xj_as_int(h, o, " + S(d - 1) + ");");
          stmt("if (gd" + u + " < 0) xj_raise(h, o, XJ_ERR_NEG_DELAY);");
        }
        for (int k = 0; k < argc; ++k) {
          stmt("ga" + u + "[" + std::to_string(k) + "] = " + S(arg_base + k) +
               ";");
        }
        stmt("o->emit_ev(h, " + S(t_idx) + ", " + a + ", " +
             (argc > 0 ? "ga" + u : std::string("(const XjValue*)0")) + ", " +
             std::to_string(argc) + "u, gd" + u + ");");
        break;
      }
      case Op::kLog: {
        const std::string u = site();
        const int argc = static_cast<int>(i.a);
        if (argc > 0) {
          decl("XjValue gl" + u + "[" + std::to_string(argc) + "];");
          for (int k = 0; k < argc; ++k) {
            stmt("gl" + u + "[" + std::to_string(k) + "] = " +
                 S(d - argc + k) + ";");
          }
        }
        stmt("o->log_vals(h, " +
             (argc > 0 ? "gl" + u : std::string("(const XjValue*)0")) + ", " +
             std::to_string(argc) + "u);");
        break;
      }
      case Op::kMemRead:
        stmt(S(d - 1) + " = xj_i(o->mem_read(h, xj_as_int(h, o, " + S(d - 1) +
             ")));");
        break;
      case Op::kMemWrite: {
        // Walker conversion order: value (top of stack) first, then address.
        const std::string u = site();
        decl("int64_t mv" + u + "; int64_t ma" + u + ";");
        stmt("mv" + u + " = xj_as_int(h, o, " + S(d - 1) + ");");
        stmt("ma" + u + " = xj_as_int(h, o, " + S(d - 2) + ");");
        stmt("o->mem_write(h, ma" + u + ", mv" + u + ");");
        break;
      }
      case Op::kTick:
        break;
    }
    return true;
  }

  std::string site() { return std::to_string(next_site_++); }

  std::string decls_;
  std::string body_;
  int next_site_ = 0;
  const std::vector<std::string>* local_names_ = nullptr;
  std::string* err_;
};

/// Inline helpers prepended to every generated translation unit. Each
/// mirrors the walker's evaluation bit for bit, including the order
/// conversions happen in (and therefore which operand's error fires first).
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
[[noreturn]] static void xj_unset_read(XjHost* h, const XjHostOps* o,
                                       const char* name) {
  o->fail_unset(h, name);
  XJ_UNREACHABLE();
}
[[noreturn]] static void xj_conv(XjHost* h, const XjHostOps* o, uint32_t c,
                                 XjValue v) {
  o->fail_conv(h, c, v);
  XJ_UNREACHABLE();
}

static inline int xj_as_bool(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag == XJ_TAG_BOOL) return (int)v.u.i;
  xj_conv(h, o, XJ_CONV_BOOL, v);
}
static inline int64_t xj_as_int(XjHost* h, const XjHostOps* o, XjValue v) {
  if (v.tag == XJ_TAG_INT) return v.u.i;
  xj_conv(h, o, XJ_CONV_INT, v);
}
static inline double xj_as_real(XjHost* h, const XjHostOps* o, XjValue v) {
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

/* Model ints wrap (two's complement, computed through uint64_t so overflow
   is defined); INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0, as in
   the walker. */
static inline int64_t xj_wrap(uint64_t u) { return (int64_t)u; }
static inline int64_t xj_neg(int64_t a) { return xj_wrap(0u - (uint64_t)a); }

static inline void xj_add(XjHost* h, const XjHostOps* o, XjValue& l,
                          XjValue r) {
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    l.u.i = xj_wrap((uint64_t)l.u.i + (uint64_t)r.u.i);
    return;
  }
  if (l.tag == XJ_TAG_STR) { l = o->str_concat(h, l, r); return; }
  double a = xj_as_real(h, o, l);
  double b = xj_as_real(h, o, r);
  l.tag = XJ_TAG_REAL; l.aux = 0u; l.u.d = a + b;
}
static inline void xj_sub(XjHost* h, const XjHostOps* o, XjValue& l,
                          XjValue r) {
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    l.u.i = xj_wrap((uint64_t)l.u.i - (uint64_t)r.u.i);
    return;
  }
  double a = xj_as_real(h, o, l);
  double b = xj_as_real(h, o, r);
  l.tag = XJ_TAG_REAL; l.aux = 0u; l.u.d = a - b;
}
static inline void xj_mul(XjHost* h, const XjHostOps* o, XjValue& l,
                          XjValue r) {
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    l.u.i = xj_wrap((uint64_t)l.u.i * (uint64_t)r.u.i);
    return;
  }
  double a = xj_as_real(h, o, l);
  double b = xj_as_real(h, o, r);
  l.tag = XJ_TAG_REAL; l.aux = 0u; l.u.d = a * b;
}
static inline void xj_div(XjHost* h, const XjHostOps* o, XjValue& l,
                          XjValue r) {
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    if (r.u.i == 0) xj_raise(h, o, XJ_ERR_DIV0);
    l.u.i = r.u.i == -1 ? xj_neg(l.u.i) : l.u.i / r.u.i;
    return;
  }
  double a = xj_as_real(h, o, l);
  double b = xj_as_real(h, o, r);
  /* the real-division path deliberately has no zero check, like the walker */
  l.tag = XJ_TAG_REAL; l.aux = 0u; l.u.d = a / b;
}
static inline void xj_mod(XjHost* h, const XjHostOps* o, XjValue& l,
                          XjValue r) {
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    if (r.u.i == 0) xj_raise(h, o, XJ_ERR_MOD0);
    l.u.i = r.u.i == -1 ? 0 : l.u.i % r.u.i;
    return;
  }
  int64_t a = xj_as_int(h, o, l);
  int64_t b = xj_as_int(h, o, r);
  if (b == 0) xj_raise(h, o, XJ_ERR_MOD0);
  l.tag = XJ_TAG_INT; l.aux = 0u; l.u.i = b == -1 ? 0 : a % b;
}

static inline int xj_eq(XjHost* h, const XjHostOps* o, XjValue l, XjValue r) {
  /* int/int is exact; a mixed pair compares as real, like value_equals() */
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) return l.u.i == r.u.i;
  const int ln = l.tag == XJ_TAG_INT || l.tag == XJ_TAG_REAL;
  const int rn = r.tag == XJ_TAG_INT || r.tag == XJ_TAG_REAL;
  if (ln && rn) {
    double a = l.tag == XJ_TAG_INT ? (double)l.u.i : l.u.d;
    double b = r.tag == XJ_TAG_INT ? (double)r.u.i : r.u.d;
    return a == b;
  }
  if (l.tag != r.tag) return 0;
  switch (l.tag) {
    case XJ_TAG_UNSET: return 1;
    case XJ_TAG_BOOL: return l.u.i == r.u.i;
    case XJ_TAG_HANDLE:
      return l.u.h.cls == r.u.h.cls && l.u.h.idx == r.u.h.idx &&
             l.aux == r.aux;
    default: return o->values_equal(h, l, r);
  }
}
static inline int xj_cmp(XjHost* h, const XjHostOps* o, XjValue l, XjValue r) {
  if (l.tag == XJ_TAG_STR) return o->str_compare(h, l, r);
  /* int/int orders exactly; anything else through as_real, like the walker */
  if (l.tag == XJ_TAG_INT && r.tag == XJ_TAG_INT) {
    return l.u.i < r.u.i ? -1 : (l.u.i > r.u.i ? 1 : 0);
  }
  double a = xj_as_real(h, o, l);
  double b = xj_as_real(h, o, r);
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace
)XJP";

}  // namespace

std::string emit_module_source(const oal::CompiledDomain& dom,
                               const std::string& digest, int* skipped) {
  std::string src;
  src += "/* generated by xtsoc::jit for domain '" + dom.domain().name() +
         "' — do not edit */\n";
  src += kAbiHeaderText;
  src += kPrelude;
  src += "namespace {\n\n";
  int skip = 0;
  struct Entry {
    std::uint32_t cls;
    std::uint32_t state;
    std::string fn;
  };
  std::vector<Entry> entries;
  for (const oal::CompiledClass& cc : dom.classes()) {
    for (std::size_t s = 0; s < cc.state_actions.size(); ++s) {
      const oal::CodeBlock bc = oal::compile_bytecode(cc.state_actions[s]);
      const std::string fn = "xj_act_" + std::to_string(cc.id.value()) + "_" +
                             std::to_string(s);
      std::string err;
      if (FnEmitter(&err).emit(bc, fn, &src)) {
        entries.push_back({cc.id.value(), static_cast<std::uint32_t>(s), fn});
      } else {
        src += "/* " + fn + " skipped: " + err + " */\n\n";
        ++skip;
      }
    }
  }
  src += "static const XjEntry kEntries[] = {\n";
  for (const Entry& e : entries) {
    src += "  {" + std::to_string(e.cls) + "u, " + std::to_string(e.state) +
           "u, &" + e.fn + "},\n";
  }
  // A dummy terminator keeps the array non-empty for action-less domains.
  src += "  {0xffffffffu, 0xffffffffu, (XjActionFn)0},\n";
  src += "};\n\n";
  src += "static const XjModule kModule = {\n"
         "  XTSOC_JIT_ABI_VERSION,\n"
         "  " + std::to_string(entries.size()) + "u,\n"
         "  kEntries,\n"
         "  \"" + digest + "\",\n"
         "};\n\n"
         "}  // namespace\n\n"
         "extern \"C\" const XjModule* xtsoc_jit_module(void) {\n"
         "  return &kModule;\n"
         "}\n";
  if (skipped != nullptr) *skipped = skip;
  return src;
}

}  // namespace xtsoc::jit
