// snap::Server — the engine of xtsocd, the long-lived campaign daemon.
//
// The cost profile of fault campaigns is dominated by work that never
// changes between requests: parsing and elaborating the model, spinning up
// worker threads, and re-simulating the warm-up prefix of every run. A
// compile-run-exit tool pays all three per invocation; xtsocd pays them
// once and keeps the results resident:
//
//   * models   — loaded once ("load" op), kept pre-elaborated (a
//     core::Project with its MappedSystem);
//   * warm checkpoints — built on first use per (model, faults, cycles)
//     key and cached, so a 16-seed campaign restores 16 times from one
//     snapshot instead of re-simulating 16 warm-ups (snap/warm.hpp);
//   * one hwsim::WorkerPool — spun up at start, shared by every session's
//     campaign fan-out (fault::Campaign's pool overload).
//
// Protocol: newline-delimited JSON over an AF_UNIX stream socket. One
// request object per line, one response object per line; "ok": true/false
// discriminates. Ops: ping, load, run, campaign, stats, shutdown — see
// docs/SERVER.md for the full field tables.
//
// Multi-tenancy discipline (this is a shared resource, so both failure
// modes are bounded):
//   * backpressure — the execution queue is BOUNDED (ServerConfig::
//     max_queue): a request that would queue deeper is rejected with
//     "server busy" immediately, never buffered without limit;
//   * quotas — every tenant (client-declared "tenant" field, "default"
//     otherwise) has a campaign-run budget; requests past it are rejected
//     with "quota exceeded".
//
// handle_request() is the socket-free core — tests drive it directly; the
// listener (start/stop) is a thin line-framing wrapper around it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xtsoc/obs/json.hpp"

namespace xtsoc::core {
class Project;
}
namespace xtsoc::hwsim {
class WorkerPool;
}

namespace xtsoc::snap {

class WarmCampaign;

struct ServerConfig {
  /// AF_UNIX socket path the listener binds (unlinked+rebound on start).
  std::string socket_path;
  /// Shared worker-pool size for campaign fan-out.
  int threads = 1;
  /// Per-run config applied inside campaigns (pinned like xtsocc's: one
  /// worker thread per run, auto window — rows depend on seeds only).
  int max_queue = 4;  ///< requests allowed to WAIT for the executor
  /// Campaign runs each tenant may consume over the server's lifetime.
  std::uint64_t tenant_quota = 4096;
};

/// Counters behind the "server" report section (stats op / stats_json()).
struct ServerStatsSnapshot {
  std::uint64_t requests = 0;         ///< requests parsed (any op)
  std::uint64_t errors = 0;           ///< responses with ok=false
  std::uint64_t rejected_busy = 0;    ///< bounded-queue backpressure hits
  std::uint64_t rejected_quota = 0;   ///< tenant budget exhausted
  std::uint64_t models_loaded = 0;    ///< distinct models resident
  std::uint64_t checkpoints_built = 0;  ///< warm checkpoints materialized
  std::uint64_t checkpoint_hits = 0;  ///< campaigns served from a cached one
  std::uint64_t campaigns = 0;        ///< campaign requests served
  std::uint64_t campaign_runs = 0;    ///< individual runs across campaigns
  std::uint64_t runs = 0;             ///< single-run requests served
  std::uint64_t sessions = 0;         ///< connections accepted
};

class Server {
public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load a model into the resident registry (also reachable via the
  /// "load" op). Returns false with a diagnostic in `*error`.
  bool load_model(const std::string& name, const std::string& xtm_text,
                  const std::string& marks_text, std::string* error);

  /// Execute one protocol request. Thread-safe; this is where queueing,
  /// quotas and stats live. `tenant_fallback` names the session when the
  /// request carries no "tenant" field.
  obs::JsonValue handle_request(const obs::JsonValue& request,
                                const std::string& tenant_fallback = "default");
  /// Line-level entry point: parse, dispatch, serialize (never throws —
  /// malformed input yields an ok=false response).
  std::string handle_line(const std::string& line,
                          const std::string& tenant_fallback = "default");

  /// Bind the socket and serve until stop(). Returns false (with `*error`)
  /// if the socket cannot be bound.
  bool start(std::string* error);
  void stop();
  bool running() const;
  /// True once a "shutdown" request was accepted (the daemon's exit cue).
  bool shutdown_requested() const;

  /// Test hook: runs on a request's thread right after it is admitted to
  /// the executor, before any work. A hook that blocks keeps the executor
  /// held, so a test can meet a busy server without racing threads. Set it
  /// before requests start; empty (default) does nothing.
  void set_admission_hook(std::function<void()> hook) {
    admission_hook_ = std::move(hook);
  }

  ServerStatsSnapshot stats() const;
  /// The "server" obs report section: config + the counters above.
  obs::JsonValue stats_json() const;

private:
  struct Model;
  struct Tenant;

  obs::JsonValue dispatch(const obs::JsonValue& req, const std::string& tenant);
  obs::JsonValue op_load(const obs::JsonValue& req);
  obs::JsonValue op_run(const obs::JsonValue& req, const std::string& tenant);
  obs::JsonValue op_campaign(const obs::JsonValue& req,
                             const std::string& tenant);

  /// Bounded-queue admission for the executor. Returns false (busy) when
  /// max_queue waiters already stand in line.
  bool acquire_executor();
  void release_executor();
  /// Debit `runs` from `tenant`'s budget; false when over quota.
  bool charge(const std::string& tenant, std::uint64_t runs);

  Model* find_model(const std::string& name);

  void accept_loop();
  void serve_connection(int fd);

  ServerConfig config_;

  mutable std::mutex mu_;  ///< registry + stats + tenants
  std::map<std::string, std::unique_ptr<Model>> models_;
  std::map<std::string, std::uint64_t> used_;  ///< tenant -> runs consumed
  ServerStatsSnapshot stats_;

  std::mutex exec_mu_;  ///< serializes pool use across sessions
  int exec_waiters_ = 0;
  std::function<void()> admission_hook_;
  std::unique_ptr<hwsim::WorkerPool> pool_;

  // Listener state.
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> sessions_;
  mutable std::mutex sessions_mu_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
};

}  // namespace xtsoc::snap
