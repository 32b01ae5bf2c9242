#include "xtsoc/snap/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "xtsoc/core/project.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/hwsim/pool.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/snap/warm.hpp"

namespace xtsoc::snap {

namespace {

obs::JsonValue error_response(const std::string& what) {
  obs::JsonValue v = obs::JsonValue::object();
  v["ok"] = false;
  v["error"] = what;
  return v;
}

std::string field_str(const obs::JsonValue& req, std::string_view key,
                      const std::string& fallback = {}) {
  const obs::JsonValue* f = req.find(key);
  return (f != nullptr && f->is_string()) ? f->as_string() : fallback;
}

std::uint64_t field_uint(const obs::JsonValue& req, std::string_view key,
                         std::uint64_t fallback) {
  const obs::JsonValue* f = req.find(key);
  return (f != nullptr && f->is_number()) ? f->as_uint() : fallback;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

/// One resident model: the pre-elaborated project plus its cached warm
/// checkpoints, keyed by the campaign shape that built them.
struct Server::Model {
  std::string name;
  std::unique_ptr<core::Project> project;
  /// (faults text | warm_cycles | run_cycles) -> resident checkpoint.
  std::map<std::string, std::unique_ptr<WarmCampaign>> warm;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.max_queue < 0) config_.max_queue = 0;
  pool_ = std::make_unique<hwsim::WorkerPool>(config_.threads);
}

Server::~Server() { stop(); }

bool Server::load_model(const std::string& name, const std::string& xtm_text,
                        const std::string& marks_text, std::string* error) {
  if (name.empty()) {
    if (error != nullptr) *error = "model name must not be empty";
    return false;
  }
  DiagnosticSink sink;
  auto project = core::Project::from_xtm(xtm_text, marks_text, sink);
  if (!project) {
    if (error != nullptr) *error = "model rejected: " + sink.to_string();
    return false;
  }
  auto model = std::make_unique<Model>();
  model->name = name;
  model->project = std::move(project);
  std::lock_guard<std::mutex> lk(mu_);
  const bool fresh = models_.find(name) == models_.end();
  models_[name] = std::move(model);  // reload replaces (and drops checkpoints)
  if (fresh) ++stats_.models_loaded;
  return true;
}

Server::Model* Server::find_model(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

bool Server::acquire_executor() {
  std::unique_lock<std::mutex> lk(exec_mu_, std::try_to_lock);
  if (lk.owns_lock()) {
    lk.release();  // handed to release_executor()
  } else {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (exec_waiters_ >= config_.max_queue) return false;
      ++exec_waiters_;
    }
    exec_mu_.lock();
    std::lock_guard<std::mutex> g(mu_);
    --exec_waiters_;
  }
  if (admission_hook_) admission_hook_();
  return true;
}

void Server::release_executor() { exec_mu_.unlock(); }

bool Server::charge(const std::string& tenant, std::uint64_t runs) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t used = used_[tenant];
  if (used + runs > config_.tenant_quota) return false;
  used_[tenant] = used + runs;
  return true;
}

obs::JsonValue Server::op_load(const obs::JsonValue& req) {
  const std::string name = field_str(req, "name");
  const std::string model_text = field_str(req, "model");
  if (model_text.empty()) {
    return error_response("load: missing 'model' (xtm text)");
  }
  std::string err;
  if (!load_model(name, model_text, field_str(req, "marks"), &err)) {
    return error_response("load: " + err);
  }
  obs::JsonValue v = obs::JsonValue::object();
  v["ok"] = true;
  v["name"] = name;
  return v;
}

obs::JsonValue Server::op_run(const obs::JsonValue& req,
                              const std::string& tenant) {
  Model* model = find_model(field_str(req, "model"));
  if (model == nullptr) {
    return error_response("run: unknown model '" + field_str(req, "model") +
                          "' (load it first)");
  }
  const std::uint64_t cycles = field_uint(req, "cycles", 64);
  if (!acquire_executor()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_busy;
    return error_response("server busy (bounded queue full, retry later)");
  }
  if (!charge(tenant, 1)) {
    release_executor();
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_quota;
    return error_response("quota exceeded for tenant '" + tenant + "'");
  }
  obs::JsonValue v = obs::JsonValue::object();
  try {
    auto cs = model->project->make_cosim({});
    cs->run_cycles(cycles);
    v["ok"] = true;
    v["report"] = cs->report().root();
  } catch (const std::exception& e) {
    release_executor();
    return error_response(std::string("run failed: ") + e.what());
  }
  release_executor();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.runs;
  }
  return v;
}

obs::JsonValue Server::op_campaign(const obs::JsonValue& req,
                                   const std::string& tenant) {
  Model* model = find_model(field_str(req, "model"));
  if (model == nullptr) {
    return error_response("campaign: unknown model '" +
                          field_str(req, "model") + "' (load it first)");
  }
  const std::string faults_text = field_str(req, "faults");
  if (faults_text.empty()) {
    return error_response(
        "campaign: missing 'faults' (marks text with fault keys)");
  }
  const int runs = static_cast<int>(field_uint(req, "runs", 8));
  if (runs < 1 || runs > 100000) {
    return error_response("campaign: 'runs' out of range");
  }
  const std::uint64_t warm_cycles = field_uint(req, "warm_cycles", 0);
  const std::uint64_t run_cycles = field_uint(req, "run_cycles", 512);

  DiagnosticSink fsink;
  marks::MarkSet fmarks = marks::MarkSet::from_text(faults_text, fsink);
  fmarks.validate(model->project->domain(), fsink);
  if (fsink.has_errors()) {
    return error_response("campaign: faults rejected: " + fsink.to_string());
  }
  fault::FaultSpec spec = fault::FaultSpec::from_marks(fmarks);
  // The warm-exactness precondition (see snap/warm.hpp): no stream may be
  // consulted before the checkpoint. Choosing warm_cycles IS choosing the
  // earliest injection cycle, so the window start is raised to match.
  if (spec.window_start < warm_cycles) spec.window_start = warm_cycles;

  if (!acquire_executor()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_busy;
    return error_response("server busy (bounded queue full, retry later)");
  }
  if (!charge(tenant, static_cast<std::uint64_t>(runs))) {
    release_executor();
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_quota;
    return error_response("quota exceeded for tenant '" + tenant + "'");
  }

  obs::JsonValue v = obs::JsonValue::object();
  try {
    const auto t0 = std::chrono::steady_clock::now();
    fault::CampaignResult result;
    bool checkpoint_hit = false;
    if (warm_cycles > 0) {
      const std::string key = faults_text + "|" +
                              std::to_string(warm_cycles) + "|" +
                              std::to_string(run_cycles);
      WarmCampaign* warm = nullptr;
      {
        // The checkpoint cache is per-model state; building a missing
        // entry happens under the executor lock (we hold it), so two
        // sessions never build the same checkpoint twice.
        auto it = model->warm.find(key);
        if (it != model->warm.end()) {
          warm = it->second.get();
          checkpoint_hit = true;
        } else {
          auto built = std::make_unique<WarmCampaign>(
              model->project->system(), cosim::CoSimConfig{}, spec,
              warm_cycles, run_cycles, [](cosim::CoSimulation&) {});
          warm = built.get();
          model->warm.emplace(key, std::move(built));
          std::lock_guard<std::mutex> lk(mu_);
          ++stats_.checkpoints_built;
        }
      }
      result = warm->run(runs, config_.threads, pool_.get());
    } else {
      // Cold mode: every run re-simulates the whole prefix. Kept as the
      // baseline xtsocc semantics (and the denominator of bench_snap's
      // warm-speedup metric).
      fault::Campaign campaign(spec, runs, config_.threads);
      const auto& sys = model->project->system();
      result = campaign.run(
          [&](int index, std::uint64_t) {
            fault::Plan plan(campaign.spec_for(index));
            cosim::CoSimConfig rcfg;
            rcfg.fault = &plan;
            cosim::CoSimulation cs(sys, rcfg);
            cs.run_cycles(warm_cycles + run_cycles);
            return cosim::outcome_of(cs, plan);
          },
          pool_.get());
    }
    const double secs = seconds_since(t0);
    v["ok"] = true;
    v["campaign"] = result.to_snapshot().root();
    v["warm"] = warm_cycles > 0;
    v["checkpoint_hit"] = checkpoint_hit;
    v["seconds"] = secs;
    v["runs_per_sec"] = secs > 0.0 ? static_cast<double>(runs) / secs : 0.0;
    release_executor();
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.campaigns;
    if (checkpoint_hit) ++stats_.checkpoint_hits;
    stats_.campaign_runs += static_cast<std::uint64_t>(runs);
  } catch (const std::exception& e) {
    release_executor();
    return error_response(std::string("campaign failed: ") + e.what());
  }
  return v;
}

obs::JsonValue Server::dispatch(const obs::JsonValue& req,
                                const std::string& tenant) {
  const std::string op = field_str(req, "op");
  if (op == "ping") {
    obs::JsonValue v = obs::JsonValue::object();
    v["ok"] = true;
    v["pong"] = true;
    return v;
  }
  if (op == "load") return op_load(req);
  if (op == "run") return op_run(req, tenant);
  if (op == "campaign") return op_campaign(req, tenant);
  if (op == "stats") {
    obs::JsonValue v = obs::JsonValue::object();
    v["ok"] = true;
    v["server"] = stats_json();
    return v;
  }
  if (op == "shutdown") {
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      shutdown_requested_ = true;
    }
    obs::JsonValue v = obs::JsonValue::object();
    v["ok"] = true;
    v["stopping"] = true;
    return v;
  }
  return error_response("unknown op '" + op + "'");
}

obs::JsonValue Server::handle_request(const obs::JsonValue& request,
                                      const std::string& tenant_fallback) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.requests;
  }
  const std::string tenant = field_str(request, "tenant", tenant_fallback);
  obs::JsonValue v = dispatch(request, tenant);
  const obs::JsonValue* ok = v.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.errors;
  }
  return v;
}

std::string Server::handle_line(const std::string& line,
                                const std::string& tenant_fallback) {
  std::string err;
  std::optional<obs::JsonValue> req = obs::json_parse(line, &err);
  obs::JsonValue resp;
  if (!req.has_value()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.requests;
      ++stats_.errors;
    }
    resp = error_response("bad request: " + err);
  } else {
    resp = handle_request(*req, tenant_fallback);
  }
  return resp.dump();
}

ServerStatsSnapshot Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

obs::JsonValue Server::stats_json() const {
  const ServerStatsSnapshot s = stats();
  obs::JsonValue v = obs::JsonValue::object();
  v["threads"] = config_.threads;
  v["max_queue"] = config_.max_queue;
  v["tenant_quota"] = config_.tenant_quota;
  v["requests"] = s.requests;
  v["errors"] = s.errors;
  v["rejected_busy"] = s.rejected_busy;
  v["rejected_quota"] = s.rejected_quota;
  v["models_loaded"] = s.models_loaded;
  v["checkpoints_built"] = s.checkpoints_built;
  v["checkpoint_hits"] = s.checkpoint_hits;
  v["campaigns"] = s.campaigns;
  v["campaign_runs"] = s.campaign_runs;
  v["runs"] = s.runs;
  v["sessions"] = s.sessions;
  return v;
}

bool Server::start(std::string* error) {
  if (config_.socket_path.empty()) {
    if (error != nullptr) *error = "no socket path configured";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long";
    return false;
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) {
      *error = "cannot bind " + config_.socket_path + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stopping_ = false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  for (;;) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      if (stopping_) return;
    }
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lk(sessions_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      ++stats_.sessions;
    }
    sessions_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  const std::string tenant = "session-" + std::to_string(fd);
  std::string buf;
  char chunk[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 200);
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      if (stopping_) break;
    }
    if (pr <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string resp = handle_line(line, tenant);
      resp += '\n';
      std::size_t off = 0;
      while (off < resp.size()) {
        const ssize_t w = ::write(fd, resp.data() + off, resp.size() - off);
        if (w <= 0) {
          ::close(fd);
          return;
        }
        off += static_cast<std::size_t>(w);
      }
    }
  }
  ::close(fd);
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
    stopping_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(config_.socket_path.c_str());
    listen_fd_ = -1;
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
}

bool Server::running() const { return listen_fd_ >= 0; }

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  return shutdown_requested_;
}

}  // namespace xtsoc::snap
