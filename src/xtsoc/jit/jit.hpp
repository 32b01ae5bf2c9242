// xtsoc::jit — AOT compilation of mapped models to native shared objects.
//
// compile() lowers every state action's typed AST to C++ (emit.*),
// invokes the system compiler once per model, dlopens the result (module.*)
// and returns it as a runtime::CompiledActions the Executor dispatches
// through. The pipeline is content-addressed: a FNV-1a digest over the
// generated source, the ABI text, the compiler identity and the flags keys
// the on-disk cache (<cache>/xtsoc-<digest>.so), so an unchanged
// model+marks never recompiles, and any change retires stale objects by
// construction.
//
// Failure policy: compile() NEVER throws and never aborts a run. Every
// failure — no compiler, unwritable cache, compile error, dlopen error,
// ABI/digest mismatch — returns a null module with a human-readable
// reason, and the caller runs on the AST walker instead (surfaced in the
// report's "engines" section).
#pragma once

#include <memory>
#include <string>

#include "xtsoc/jit/module.hpp"
#include "xtsoc/oal/compiled.hpp"

namespace xtsoc::jit {

struct JitOptions {
  /// Cache directory for generated sources and shared objects. Empty means
  /// $XDG_CACHE_HOME/xtsoc/jit, else $HOME/.cache/xtsoc/jit, else a
  /// directory under the system temp path.
  std::string cache_dir;
  /// C++ compiler command. Empty means $XTSOC_JIT_CXX, else $CXX, else
  /// "c++". The string is passed to the shell verbatim, so it may carry
  /// flags of its own ("ccache g++").
  std::string compiler;
  /// Extra flags appended to the fixed "-O2 -fPIC -shared -std=c++17 -w".
  std::string extra_flags;
};

struct JitResult {
  /// The loaded module, or null if the jit is unavailable (see reason).
  std::unique_ptr<Module> module;
  /// Why the module is null; empty on success.
  std::string reason;
  std::string digest;
  std::string so_path;
  bool cache_hit = false;
};

/// Default cache directory (see JitOptions::cache_dir).
std::string default_cache_dir();

/// The compiler command compile() would use for `opts`.
std::string resolve_compiler(const JitOptions& opts);

/// Lower, compile (or load from cache) and validate `dom`. Never throws.
JitResult compile(const oal::CompiledDomain& dom, const JitOptions& opts = {});

}  // namespace xtsoc::jit
