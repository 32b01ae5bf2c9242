// A loaded jit model: dlopen'd shared object + validated entry table,
// exposed to the Executor through runtime::CompiledActions.
//
// Validation order on load (each failure returns a reason, never throws):
// dlopen -> entry symbol -> ABI version -> content digest. A stale cached
// .so (right file name, wrong exported digest) is rejected here and the
// caller falls back to the walker — it is never silently recompiled over,
// because a digest mismatch under a digest-keyed name means something is
// wrong with the cache itself.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "xtsoc/jit/abi.h"
#include "xtsoc/runtime/compiled_actions.hpp"

namespace xtsoc::jit {

class Module : public runtime::CompiledActions {
public:
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  ~Module() override;

  /// dlopen `so_path`, resolve xtsoc_jit_module(), validate ABI version
  /// and (when non-empty) `expected_digest`. Null + *err on any failure.
  static std::unique_ptr<Module> load(const std::string& so_path,
                                      const std::string& expected_digest,
                                      std::string* err);

  // --- CompiledActions -------------------------------------------------------
  bool has(ClassId cls, StateId state) const override;
  runtime::InterpResult run(ClassId cls, StateId state,
                            const runtime::InstanceHandle& self,
                            const std::vector<runtime::Value>& params,
                            runtime::Host& host,
                            std::uint64_t max_ops) const override;

  const std::string& digest() const { return digest_; }
  const std::string& path() const { return path_; }
  std::size_t entry_count() const { return entry_count_; }

private:
  Module() = default;

  void* dl_ = nullptr;
  std::string digest_;
  std::string path_;
  std::size_t entry_count_ = 0;
  /// Dense [class][state] function table (null = not compiled).
  std::vector<std::vector<XjActionFn>> fns_;
};

}  // namespace xtsoc::jit
