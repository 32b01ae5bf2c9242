#include "xtsoc/jit/module.hpp"

#include <dlfcn.h>

#include <utility>

#include "xtsoc/runtime/database.hpp"

namespace xtsoc::jit {

namespace {

using runtime::Host;
using runtime::InstanceHandle;
using runtime::InstanceSet;
using runtime::ModelError;
using runtime::Value;

/// Per-invocation host context; XjHost* is a reinterpret_cast of this.
/// The arena holds every string/set value that crosses the ABI during one
/// action run — XjValue carries only an index, so values can be handed to
/// generated code without heap-typed payloads in the 16-byte struct.
struct HostCtx {
  Host* host;
  std::vector<Value>* arena;
  InstanceHandle self;
  bool self_deleted = false;
};

inline HostCtx* ctx(XjHost* h) { return reinterpret_cast<HostCtx*>(h); }

inline InstanceHandle to_handle(const XjValue& x) {
  InstanceHandle h;
  h.cls = ClassId(x.u.h.cls);  // XJ_CLS_NULL == ClassId::invalid().value()
  h.index = x.u.h.idx;
  h.generation = x.aux;
  return h;
}

inline XjValue from_handle(const InstanceHandle& h) {
  XjValue x;
  x.tag = XJ_TAG_HANDLE;
  x.aux = h.generation;
  x.u.h.cls = h.cls.value();
  x.u.h.idx = h.index;
  return x;
}

inline XjValue arena_put(HostCtx& c, Value v, std::uint32_t tag) {
  XjValue x;
  x.tag = tag;
  x.aux = static_cast<std::uint32_t>(c.arena->size());
  x.u.i = 0;
  c.arena->push_back(std::move(v));
  return x;
}

XjValue to_xj(const Value& v, HostCtx& c) {
  XjValue x;
  x.tag = static_cast<std::uint32_t>(v.index());
  x.aux = 0;
  x.u.i = 0;
  switch (v.index()) {
    case 0:
      break;
    case 1:
      x.u.i = std::get<bool>(v) ? 1 : 0;
      break;
    case 2:
      x.u.i = std::get<std::int64_t>(v);
      break;
    case 3:
      x.u.d = std::get<double>(v);
      break;
    case 4:
      return arena_put(c, v, XJ_TAG_STR);
    case 5:
      return from_handle(std::get<InstanceHandle>(v));
    case 6:
      return arena_put(c, v, XJ_TAG_SET);
  }
  return x;
}

/// Arena values may be aliased by several XjValues, so conversion back to
/// a Value always copies, never moves.
Value from_xj(const XjValue& x, HostCtx& c) {
  switch (x.tag) {
    case XJ_TAG_UNSET:
      return Value{};
    case XJ_TAG_BOOL:
      return Value(x.u.i != 0);
    case XJ_TAG_INT:
      return Value(x.u.i);
    case XJ_TAG_REAL:
      return Value(x.u.d);
    case XJ_TAG_HANDLE:
      return Value(to_handle(x));
    default:
      return (*c.arena)[x.aux];
  }
}

inline const InstanceSet& arena_set(HostCtx& c, const XjValue& x) {
  return std::get<InstanceSet>((*c.arena)[x.aux]);
}

inline const std::string& arena_str(HostCtx& c, const XjValue& x) {
  return std::get<std::string>((*c.arena)[x.aux]);
}

// --- XjHostOps implementations ----------------------------------------------

XjValue op_get_attr(XjHost* h, XjValue obj, std::uint32_t attr) {
  HostCtx& c = *ctx(h);
  return to_xj(c.host->database().get_attr(to_handle(obj), AttributeId(attr)),
               c);
}

void op_set_attr(XjHost* h, XjValue obj, std::uint32_t attr, XjValue v) {
  HostCtx& c = *ctx(h);
  const InstanceHandle ih = to_handle(obj);
  c.host->database().set_attr(ih, AttributeId(attr), from_xj(v, c));
  // Re-read like the walker so the traced value reflects any coercion.
  c.host->on_attr_write(ih, AttributeId(attr),
                        c.host->database().get_attr(ih, AttributeId(attr)));
}

XjValue op_create(XjHost* h, std::uint32_t cls) {
  HostCtx& c = *ctx(h);
  const InstanceHandle ih = c.host->database().create(ClassId(cls));
  c.host->on_create(ih);
  return from_handle(ih);
}

void op_delete(XjHost* h, XjValue obj) {
  HostCtx& c = *ctx(h);
  const InstanceHandle ih = to_handle(obj);
  c.host->on_delete(ih);
  c.host->database().destroy(ih);
  if (ih == c.self) c.self_deleted = true;
}

void op_relate(XjHost* h, XjValue a, XjValue b, std::uint32_t assoc) {
  HostCtx& c = *ctx(h);
  c.host->database().relate(to_handle(a), to_handle(b), AssociationId(assoc));
}

void op_unrelate(XjHost* h, XjValue a, XjValue b, std::uint32_t assoc) {
  HostCtx& c = *ctx(h);
  c.host->database().unrelate(to_handle(a), to_handle(b),
                              AssociationId(assoc));
}

XjValue op_select_all(XjHost* h, std::uint32_t cls) {
  HostCtx& c = *ctx(h);
  return arena_put(c, Value(c.host->database().all_of(ClassId(cls))),
                   XJ_TAG_SET);
}

XjValue op_related(XjHost* h, XjValue start, std::uint32_t assoc) {
  HostCtx& c = *ctx(h);
  return arena_put(
      c,
      Value(c.host->database().related(to_handle(start), AssociationId(assoc))),
      XJ_TAG_SET);
}

int op_handle_alive(XjHost* h, XjValue v) {
  HostCtx& c = *ctx(h);
  return c.host->database().is_alive(to_handle(v)) ? 1 : 0;
}

std::int64_t op_set_size(XjHost* h, XjValue set) {
  return static_cast<std::int64_t>(arena_set(*ctx(h), set).size());
}

XjValue op_set_at(XjHost* h, XjValue set, std::int64_t idx) {
  // vector::at: a bad index throws std::out_of_range. Only for-each loops
  // index sets, and they stay in range.
  return from_handle(
      arena_set(*ctx(h), set).at(static_cast<std::size_t>(idx)));
}

XjValue op_set_first(XjHost* h, XjValue set) {
  const InstanceSet& s = arena_set(*ctx(h), set);
  return from_handle(s.empty() ? InstanceHandle::null() : s.front());
}

XjValue op_set_new(XjHost* h) {
  return arena_put(*ctx(h), Value(InstanceSet{}), XJ_TAG_SET);
}

void op_set_append(XjHost* h, XjValue set, XjValue elem) {
  HostCtx& c = *ctx(h);
  std::get<InstanceSet>((*c.arena)[set.aux]).push_back(to_handle(elem));
}

XjValue op_str_const(XjHost* h, const char* data, std::uint64_t len) {
  return arena_put(*ctx(h),
                   Value(std::string(data, static_cast<std::size_t>(len))),
                   XJ_TAG_STR);
}

XjValue op_str_concat(XjHost* h, XjValue l, XjValue r) {
  HostCtx& c = *ctx(h);
  // Right side through std::get, like the walker: a non-string rhs throws
  // the same std::bad_variant_access.
  const Value rv = from_xj(r, c);
  return arena_put(c, Value(arena_str(c, l) + std::get<std::string>(rv)),
                   XJ_TAG_STR);
}

int op_str_compare(XjHost* h, XjValue l, XjValue r) {
  HostCtx& c = *ctx(h);
  const Value rv = from_xj(r, c);
  return arena_str(c, l).compare(std::get<std::string>(rv));
}

int op_values_equal(XjHost* h, XjValue l, XjValue r) {
  HostCtx& c = *ctx(h);
  return runtime::value_equals(from_xj(l, c), from_xj(r, c)) ? 1 : 0;
}

void op_emit_ev(XjHost* h, XjValue target, std::uint32_t cls_event,
                const XjValue* args, std::uint32_t argc, std::int64_t delay) {
  HostCtx& c = *ctx(h);
  std::vector<Value> payload = c.host->acquire_args(argc);
  for (std::uint32_t k = 0; k < argc; ++k) {
    payload[k] = from_xj(args[k], c);
  }
  c.host->emit(c.self, to_handle(target), EventId(cls_event & 0xffff),
               std::move(payload), static_cast<std::uint64_t>(delay));
}

void op_log_vals(XjHost* h, const XjValue* vals, std::uint32_t n) {
  HostCtx& c = *ctx(h);
  std::string text;
  for (std::uint32_t k = 0; k < n; ++k) {
    if (k > 0) text += ' ';
    text += runtime::to_string(from_xj(vals[k], c));
  }
  c.host->on_log(std::move(text));
}

void op_fail(XjHost* /*h*/, std::uint32_t err) {
  switch (err) {
    case XJ_ERR_DIV0:
      throw ModelError("integer division by zero");
    case XJ_ERR_MOD0:
      throw ModelError("modulo by zero");
    case XJ_ERR_NEG_DELAY:
      throw ModelError("negative delay in generate");
    case XJ_ERR_GEN_NULL:
      throw ModelError("generate to a null instance reference");
    case XJ_ERR_OP_LIMIT:
      throw ModelError("action exceeded op limit (runaway loop?)");
    default:
      throw ModelError("jit: unknown model error code");
  }
}

void op_fail_unset(XjHost* /*h*/, const char* name) {
  throw ModelError("read of unset variable '" + std::string(name) + "'");
}

void op_fail_conv(XjHost* h, std::uint32_t conv, XjValue v) {
  // Reconstruct the Value and run the exact runtime conversion, so the
  // exception type and message are the walker's, character for character.
  const Value val = from_xj(v, *ctx(h));
  switch (conv) {
    case XJ_CONV_BOOL:
      (void)runtime::as_bool(val);
      break;
    case XJ_CONV_INT:
      (void)runtime::as_int(val);
      break;
    case XJ_CONV_REAL:
      (void)runtime::as_real(val);
      break;
    case XJ_CONV_HANDLE:
      (void)runtime::as_handle(val);
      break;
    case XJ_CONV_SET:
      (void)runtime::as_set(val);
      break;
    default:
      break;
  }
  throw ModelError("jit: conversion check failed to fail");
}

std::int64_t op_mem_read(XjHost* h, std::int64_t addr) {
  return ctx(h)->host->mem_read(addr);
}

void op_mem_write(XjHost* h, std::int64_t addr, std::int64_t value) {
  ctx(h)->host->mem_write(addr, value);
}

const XjHostOps kHostOps = {
    sizeof(XjHostOps),
    &op_get_attr,
    &op_set_attr,
    &op_create,
    &op_delete,
    &op_relate,
    &op_unrelate,
    &op_select_all,
    &op_related,
    &op_handle_alive,
    &op_set_size,
    &op_set_at,
    &op_set_first,
    &op_set_new,
    &op_set_append,
    &op_str_const,
    &op_str_concat,
    &op_str_compare,
    &op_values_equal,
    &op_emit_ev,
    &op_log_vals,
    &op_fail,
    &op_fail_conv,
    &op_fail_unset,
    &op_mem_read,
    &op_mem_write,
};

}  // namespace

Module::~Module() {
  if (dl_ != nullptr) dlclose(dl_);
}

std::unique_ptr<Module> Module::load(const std::string& so_path,
                                     const std::string& expected_digest,
                                     std::string* err) {
  void* dl = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (dl == nullptr) {
    const char* e = dlerror();
    *err = std::string("dlopen failed: ") + (e != nullptr ? e : "unknown");
    return nullptr;
  }
  using GetModuleFn = const XjModule* (*)();
  auto get = reinterpret_cast<GetModuleFn>(dlsym(dl, XTSOC_JIT_ENTRY_SYMBOL));
  if (get == nullptr) {
    *err = "shared object exports no " XTSOC_JIT_ENTRY_SYMBOL " symbol";
    dlclose(dl);
    return nullptr;
  }
  const XjModule* m = get();
  if (m == nullptr || m->entries == nullptr) {
    *err = "module entry table is null";
    dlclose(dl);
    return nullptr;
  }
  if (m->abi_version != XTSOC_JIT_ABI_VERSION) {
    *err = "jit ABI version mismatch (module v" +
           std::to_string(m->abi_version) + ", host v" +
           std::to_string(XTSOC_JIT_ABI_VERSION) + ")";
    dlclose(dl);
    return nullptr;
  }
  const std::string mod_digest = m->digest != nullptr ? m->digest : "";
  if (!expected_digest.empty() && mod_digest != expected_digest) {
    *err = "interface digest mismatch (cached object is stale: module " +
           mod_digest + ", expected " + expected_digest + ")";
    dlclose(dl);
    return nullptr;
  }

  std::unique_ptr<Module> mod(new Module());
  mod->dl_ = dl;
  mod->digest_ = mod_digest;
  mod->path_ = so_path;
  mod->entry_count_ = m->entry_count;
  for (std::uint32_t k = 0; k < m->entry_count; ++k) {
    const XjEntry& e = m->entries[k];
    if (e.fn == nullptr) continue;
    if (e.cls >= mod->fns_.size()) mod->fns_.resize(e.cls + 1);
    auto& per_class = mod->fns_[e.cls];
    if (e.state >= per_class.size()) per_class.resize(e.state + 1, nullptr);
    per_class[e.state] = e.fn;
  }
  return mod;
}

bool Module::has(ClassId cls, StateId state) const {
  if (cls.value() >= fns_.size()) return false;
  const auto& per_class = fns_[cls.value()];
  return state.value() < per_class.size() &&
         per_class[state.value()] != nullptr;
}

runtime::InterpResult Module::run(ClassId cls, StateId state,
                                  const InstanceHandle& self,
                                  const std::vector<Value>& params, Host& host,
                                  std::uint64_t max_ops) const {
  // One arena per thread, reused across invocations: actions cannot
  // re-enter dispatch (signals only queue), so per-run clear() is safe,
  // and cosim's parallel window phase runs executors on distinct threads.
  thread_local std::vector<Value> arena;
  thread_local std::vector<XjValue> xparams;
  HostCtx c{&host, &arena, self, false};
  arena.clear();
  xparams.clear();
  xparams.reserve(params.size());
  for (const Value& p : params) xparams.push_back(to_xj(p, c));

  const XjActionFn fn = fns_[cls.value()][state.value()];
  const std::uint64_t ops =
      fn(reinterpret_cast<XjHost*>(&c), &kHostOps, from_handle(self),
         xparams.data(), max_ops);

  runtime::InterpResult r;
  r.ops = ops;
  r.self_deleted = c.self_deleted;
  return r;
}

}  // namespace xtsoc::jit
