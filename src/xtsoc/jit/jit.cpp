#include "xtsoc/jit/jit.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "xtsoc/common/strings.hpp"
#include "xtsoc/jit/emit.hpp"

namespace xtsoc::jit {

namespace fs = std::filesystem;

namespace {

/// Token baked into the generated source where the digest will go; the
/// digest is computed over the placeholder form (deterministic), then
/// substituted, so the hash never depends on itself.
constexpr const char* kDigestPlaceholder = "XJ-DIGEST-PLACEHOLDER-4af1";

constexpr const char* kBaseFlags = "-O2 -fPIC -shared -std=c++17 -w";

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

/// Read up to `limit` bytes of a file (for compiler error excerpts).
std::string read_head(const fs::path& p, std::size_t limit) {
  std::ifstream in(p);
  if (!in) return {};
  std::string text(limit, '\0');
  in.read(text.data(), static_cast<std::streamsize>(limit));
  text.resize(static_cast<std::size_t>(in.gcount()));
  // Compress newlines so the reason stays a one-liner in reports.
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

bool shell_safe(const std::string& path) {
  return path.find('\'') == std::string::npos;
}

std::string quoted(const std::string& path) { return "'" + path + "'"; }

}  // namespace

std::string default_cache_dir() {
  const std::string xdg = env_or_empty("XDG_CACHE_HOME");
  if (!xdg.empty()) return xdg + "/xtsoc/jit";
  const std::string home = env_or_empty("HOME");
  if (!home.empty()) return home + "/.cache/xtsoc/jit";
  std::error_code ec;
  const fs::path tmp = fs::temp_directory_path(ec);
  return (ec ? fs::path("/tmp") : tmp).string() + "/xtsoc-jit";
}

std::string resolve_compiler(const JitOptions& opts) {
  if (!opts.compiler.empty()) return opts.compiler;
  const std::string jit_cxx = env_or_empty("XTSOC_JIT_CXX");
  if (!jit_cxx.empty()) return jit_cxx;
  const std::string cxx = env_or_empty("CXX");
  if (!cxx.empty()) return cxx;
  return "c++";
}

JitResult compile(const oal::CompiledDomain& dom, const JitOptions& opts) {
  JitResult res;
  try {
    const std::string compiler = resolve_compiler(opts);
    std::string flags = kBaseFlags;
    if (!opts.extra_flags.empty()) flags += " " + opts.extra_flags;

    // Generate with the placeholder digest, hash, then substitute.
    std::string src = emit_module_source(dom, kDigestPlaceholder);
    res.digest =
        fnv1a_hex(src + "\n|" + compiler + "|" + flags + "|v" +
                  std::to_string(XTSOC_JIT_ABI_VERSION));
    const std::size_t at = src.rfind(kDigestPlaceholder);
    if (at != std::string::npos) {
      src.replace(at, std::string(kDigestPlaceholder).size(), res.digest);
    }

    const std::string dir =
        opts.cache_dir.empty() ? default_cache_dir() : opts.cache_dir;
    if (!shell_safe(dir)) {
      res.reason = "cache directory path contains a quote: " + dir;
      return res;
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    // create_directories is fine with an existing dir; writability is
    // probed by the source write below.

    const fs::path so_path = fs::path(dir) / ("xtsoc-" + res.digest + ".so");
    res.so_path = so_path.string();

    if (fs::exists(so_path, ec) && !ec) {
      std::string err;
      res.module = Module::load(res.so_path, res.digest, &err);
      if (res.module != nullptr) {
        res.cache_hit = true;
      } else {
        // A digest-keyed file that fails validation means the cache is
        // corrupt or stale — report and fall back, never recompile over it.
        res.reason = "cached object rejected: " + err;
      }
      return res;
    }

    // Every build works on pid-tagged files and publishes by rename, so
    // processes compiling the same model into one cache cannot truncate
    // each other's source or object mid-compile.
    const std::string tag = std::to_string(
        static_cast<unsigned long long>(::getpid()));
    const fs::path src_path = fs::path(dir) / ("xtsoc-" + res.digest + ".cpp");
    const fs::path tmp_src =
        fs::path(dir) / ("xtsoc-" + res.digest + "." + tag + ".cpp");
    {
      std::ofstream out(tmp_src, std::ios::trunc);
      out << src;
      if (!out) {
        res.reason = "cache directory not writable: " + dir;
        std::error_code rm;
        fs::remove(tmp_src, rm);
        return res;
      }
    }

    const fs::path tmp_so =
        fs::path(dir) / ("xtsoc-" + res.digest + "." + tag + ".so.tmp");
    const fs::path log_path =
        fs::path(dir) / ("xtsoc-" + res.digest + "." + tag + ".log");

    const std::string cmd = compiler + " " + flags + " -o " +
                            quoted(tmp_so.string()) + " " +
                            quoted(tmp_src.string()) + " > " +
                            quoted(log_path.string()) + " 2>&1";
    const int rc = std::system(cmd.c_str());
    {
      // The source stays beside its object for inspection.
      std::error_code mv;
      fs::rename(tmp_src, src_path, mv);
      if (mv) fs::remove(tmp_src, mv);
    }
    if (rc != 0) {
      std::string excerpt = read_head(log_path, 300);
      res.reason = "compile failed (" + compiler + ", status " +
                   std::to_string(rc) + ")" +
                   (excerpt.empty() ? "" : ": " + excerpt);
      std::error_code rm;
      fs::remove(tmp_so, rm);
      fs::remove(log_path, rm);
      return res;
    }
    std::error_code rm;
    fs::remove(log_path, rm);

    fs::rename(tmp_so, so_path, ec);
    if (ec) {
      res.reason = "cache install failed: " + ec.message();
      fs::remove(tmp_so, rm);
      return res;
    }

    std::string err;
    res.module = Module::load(res.so_path, res.digest, &err);
    if (res.module == nullptr) {
      res.reason = "freshly built object rejected: " + err;
    }
    return res;
  } catch (const std::exception& e) {
    res.module = nullptr;
    res.reason = std::string("jit unavailable: ") + e.what();
    return res;
  }
}

}  // namespace xtsoc::jit
