/* xtsoc::jit C ABI — the only contract between the host process and a
 * jit-compiled model shared object.
 *
 * This header is deliberately plain C: it is both #included by the host
 * (src/xtsoc/jit/module.cpp) and embedded verbatim at the top of every
 * generated translation unit (via the CMake-generated jit_abi_text.cpp), so
 * the .so never needs the repository's headers. Because the ABI text itself
 * is part of the module digest, any edit here retires every cached .so
 * automatically.
 *
 * Versioning follows xtsoc::snap: a monotonically bumped XTSOC_JIT_ABI_VERSION
 * plus a content digest exported by the module. The host refuses (and falls
 * back to the AST walker) on either mismatch.
 */
#ifndef XTSOC_JIT_ABI_H_
#define XTSOC_JIT_ABI_H_

#include <stdint.h>

#define XTSOC_JIT_ABI_VERSION 2u

/* Value tags. Numerically identical to runtime::Value's variant indexes so
 * host-side conversion is a table lookup, never a remap. */
#define XJ_TAG_UNSET 0u
#define XJ_TAG_BOOL 1u
#define XJ_TAG_INT 2u
#define XJ_TAG_REAL 3u
#define XJ_TAG_STR 4u
#define XJ_TAG_HANDLE 5u
#define XJ_TAG_SET 6u

/* runtime::ClassId::invalid().value() — a handle with this class is null. */
#define XJ_CLS_NULL 0xffffffffu

/* Conversion-failure kinds for XjHostOps::fail_conv (mirror runtime as_*). */
#define XJ_CONV_BOOL 1u
#define XJ_CONV_INT 2u
#define XJ_CONV_REAL 3u
#define XJ_CONV_HANDLE 4u
#define XJ_CONV_SET 5u

/* Model-error kinds for XjHostOps::fail (the walker's error strings,
 * produced host-side). */
#define XJ_ERR_DIV0 1u
#define XJ_ERR_MOD0 2u
#define XJ_ERR_NEG_DELAY 4u
#define XJ_ERR_GEN_NULL 5u
#define XJ_ERR_OP_LIMIT 6u

/* A runtime value flattened to 16 trivially copyable bytes.
 *   UNSET            tag only
 *   BOOL/INT         u.i (bool is 0/1)
 *   REAL             u.d
 *   STR/SET          aux = index into the host's per-invocation value arena
 *   HANDLE           u.h.cls/u.h.idx, aux = generation
 */
typedef struct XjValue {
  uint32_t tag;
  uint32_t aux;
  union {
    int64_t i;
    double d;
    struct {
      uint32_t cls;
      uint32_t idx;
    } h;
  } u;
} XjValue;

struct XjHost; /* opaque host context */
typedef struct XjHost XjHost;

/* Host services. Every model-database or heap-typed operation crosses this
 * table so generated code stays self-contained; scalar arithmetic and
 * control flow never do. `size` is sizeof(XjHostOps) on the host side —
 * future minor extensions append members and bump only the digest. */
typedef struct XjHostOps {
  uint32_t size;

  XjValue (*get_attr)(XjHost* h, XjValue obj, uint32_t attr);
  void (*set_attr)(XjHost* h, XjValue obj, uint32_t attr, XjValue v);
  XjValue (*create_inst)(XjHost* h, uint32_t cls);
  void (*delete_inst)(XjHost* h, XjValue obj);
  void (*relate)(XjHost* h, XjValue a, XjValue b, uint32_t assoc);
  void (*unrelate)(XjHost* h, XjValue a, XjValue b, uint32_t assoc);
  XjValue (*select_all)(XjHost* h, uint32_t cls);
  XjValue (*related)(XjHost* h, XjValue start, uint32_t assoc);
  int (*handle_alive)(XjHost* h, XjValue v);

  int64_t (*set_size)(XjHost* h, XjValue set);
  XjValue (*set_at)(XjHost* h, XjValue set, int64_t idx);
  XjValue (*set_first)(XjHost* h, XjValue set);
  XjValue (*set_new)(XjHost* h);
  void (*set_append)(XjHost* h, XjValue set, XjValue elem);

  XjValue (*str_const)(XjHost* h, const char* data, uint64_t len);
  XjValue (*str_concat)(XjHost* h, XjValue l, XjValue r);
  int (*str_compare)(XjHost* h, XjValue l, XjValue r);
  int (*values_equal)(XjHost* h, XjValue l, XjValue r);

  /* cls_event packs (target class << 16) | event. */
  void (*emit_ev)(XjHost* h, XjValue target, uint32_t cls_event,
                  const XjValue* args, uint32_t argc, int64_t delay);
  void (*log_vals)(XjHost* h, const XjValue* vals, uint32_t n);

  /* All three throw the walker's C++ exception and never return.
   * fail_unset names the local variable read before it was assigned. */
  void (*fail)(XjHost* h, uint32_t err);
  void (*fail_conv)(XjHost* h, uint32_t conv, XjValue v);
  void (*fail_unset)(XjHost* h, const char* name);

  /* Platform memory port (`mem.read` / `mem.write`). Appended member —
   * the digest covers this text, so older cached .so files retire. */
  int64_t (*mem_read)(XjHost* h, int64_t addr);
  void (*mem_write)(XjHost* h, int64_t addr, int64_t value);
} XjHostOps;

/* One compiled state action. Returns executed op count (identical to the
 * AST walker's count for the same dispatch); self-deletion is tracked
 * host-side. Model errors propagate as C++ exceptions raised by fail /
 * fail_conv / fail_unset inside host callbacks. */
typedef uint64_t (*XjActionFn)(XjHost* h, const XjHostOps* o, XjValue self,
                               const XjValue* params, uint64_t max_ops);

typedef struct XjEntry {
  uint32_t cls;
  uint32_t state;
  XjActionFn fn;
} XjEntry;

typedef struct XjModule {
  uint32_t abi_version; /* XTSOC_JIT_ABI_VERSION at generation time */
  uint32_t entry_count;
  const XjEntry* entries;
  const char* digest; /* content digest the host validates against */
} XjModule;

/* The module's single exported symbol:
 *   extern "C" const XjModule* xtsoc_jit_module(void);
 */
#define XTSOC_JIT_ENTRY_SYMBOL "xtsoc_jit_module"

#endif /* XTSOC_JIT_ABI_H_ */
