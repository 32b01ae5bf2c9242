// snap::Server / snap::Client — the xtsocd engine.
//
// The contracts under test, in order:
//   * protocol basics through the socket-free core (handle_request /
//     handle_line): ping, unknown op, malformed JSON, load rejection;
//   * a server-side cold campaign produces the EXACT document an
//     in-process fault::Campaign produces — the daemon changes where runs
//     execute, never what they compute;
//   * a warm campaign (served from the resident checkpoint) matches the
//     cold document too, and the second identical request hits the cache;
//   * per-tenant quotas reject past the budget (and the rejected request
//     consumes nothing);
//   * bounded-queue backpressure: with max_queue=0, a request that
//     arrives while the executor is busy is rejected immediately;
//   * the "server" stats section counts what happened;
//   * end to end over AF_UNIX: start(), Client round trips, shutdown.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>

#include "test_models.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/core/project.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/snap/client.hpp"
#include "xtsoc/snap/server.hpp"
#include "xtsoc/text/xtm.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::snap {
namespace {

using xtuml::DataType;
using xtuml::ScalarValue;

/// The snap_test ring workload, expressed as wire-shippable text: three
/// self-sustaining hardware nodes on a 2x2 mesh. Campaigns need traffic,
/// and this generates it forever without stimulus.
std::unique_ptr<xtuml::Domain> make_ring_domain() {
  xtuml::DomainBuilder b("Ring");
  constexpr int kNodes = 3;
  for (int i = 0; i < kNodes; ++i) b.cls("Node" + std::to_string(i));
  for (int i = 0; i < kNodes; ++i) {
    std::string peer = "Node" + std::to_string((i + 1) % kNodes);
    b.edit("Node" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .ref_attr("peer", peer)
        .event("tick")
        .event("ping", {{"v", DataType::kInt}})
        .state("Spin",
               "self.acc = (self.acc * 33 + 7) % 65537;\n"
               "if (self.acc % 8 == 0)\n"
               "  generate ping(v: self.acc) to self.peer;\n"
               "end if;\n"
               "generate tick() to self;")
        .state("Pinged", "generate tick() to self;")
        .transition("Spin", "tick", "Spin")
        .transition("Spin", "ping", "Pinged")
        .transition("Pinged", "tick", "Spin")
        .transition("Pinged", "ping", "Pinged");
  }
  return b.take();
}

std::string ring_xtm() { return text::write_xtm(*make_ring_domain()); }

std::string ring_marks_text() {
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};
  for (int i = 0; i < 3; ++i) {
    std::string cls = "Node" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     ScalarValue(std::int64_t{tiles[i][0]}));
    m.set_class_mark(cls, marks::kTileY,
                     ScalarValue(std::int64_t{tiles[i][1]}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{2}));
  return m.to_text();
}

/// Fault marks as wire text, the way a client ships them.
std::string faults_text(std::uint64_t window_start = 0) {
  marks::MarkSet m;
  m.set_domain_mark(marks::kFaultSeed, ScalarValue(std::int64_t{42}));
  m.set_domain_mark(marks::kFaultRateFlitDrop, ScalarValue(0.02));
  m.set_domain_mark(marks::kFaultRateFlitCorrupt, ScalarValue(0.02));
  if (window_start > 0) {
    m.set_domain_mark(marks::kFaultWindowStart,
                      ScalarValue(static_cast<std::int64_t>(window_start)));
  }
  return m.to_text();
}

obs::JsonValue req(std::initializer_list<obs::JsonValue::Member> fields) {
  obs::JsonValue v = obs::JsonValue::object();
  for (const auto& [k, val] : fields) v[k] = val;
  return v;
}

bool ok(const obs::JsonValue& resp) {
  const obs::JsonValue* f = resp.find("ok");
  return f != nullptr && f->as_bool();
}

std::string error_of(const obs::JsonValue& resp) {
  const obs::JsonValue* f = resp.find("error");
  return f != nullptr && f->is_string() ? f->as_string() : "";
}

ServerConfig test_config() {
  ServerConfig c;  // no socket: handle_request only
  c.threads = 1;
  return c;
}

void load_ring(Server& server) {
  std::string err;
  ASSERT_TRUE(server.load_model("ring", ring_xtm(), ring_marks_text(), &err))
      << err;
}

// --- protocol basics -----------------------------------------------------------

TEST(SnapServer, PingPongs) {
  Server server(test_config());
  obs::JsonValue resp = server.handle_request(req({{"op", "ping"}}));
  EXPECT_TRUE(ok(resp));
  EXPECT_TRUE(resp.at("pong").as_bool());
}

TEST(SnapServer, UnknownOpAndMalformedLineAreErrors) {
  Server server(test_config());
  EXPECT_FALSE(ok(server.handle_request(req({{"op", "frobnicate"}}))));
  // handle_line never throws: malformed input yields a parseable ok=false.
  std::string line = server.handle_line("this is not json");
  std::optional<obs::JsonValue> resp = obs::json_parse(line);
  ASSERT_TRUE(resp.has_value()) << line;
  EXPECT_FALSE(ok(*resp));
  EXPECT_NE(error_of(*resp).find("bad request"), std::string::npos);
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(SnapServer, LoadRejectsBadModelAndRunNeedsLoad) {
  Server server(test_config());
  obs::JsonValue resp = server.handle_request(
      req({{"op", "load"}, {"name", "x"}, {"model", "not a model"}}));
  EXPECT_FALSE(ok(resp));
  EXPECT_NE(error_of(resp).find("rejected"), std::string::npos);
  resp = server.handle_request(req({{"op", "run"}, {"model", "ghost"}}));
  EXPECT_FALSE(ok(resp));
  EXPECT_NE(error_of(resp).find("unknown model"), std::string::npos);
}

TEST(SnapServer, LoadThenRun) {
  Server server(test_config());
  obs::JsonValue resp = server.handle_request(req({{"op", "load"},
                                                   {"name", "ring"},
                                                   {"model", ring_xtm()},
                                                   {"marks", ring_marks_text()}}));
  ASSERT_TRUE(ok(resp)) << error_of(resp);
  resp = server.handle_request(
      req({{"op", "run"}, {"model", "ring"}, {"cycles", 128}}));
  ASSERT_TRUE(ok(resp)) << error_of(resp);
  EXPECT_TRUE(resp.at("report").is_object());
  EXPECT_EQ(server.stats().runs, 1u);
  EXPECT_EQ(server.stats().models_loaded, 1u);
}

// --- campaigns -----------------------------------------------------------------

constexpr int kRuns = 4;
constexpr std::uint64_t kWarm = 200;
constexpr std::uint64_t kRun = 300;

/// What the daemon must reproduce: an in-process cold campaign over the
/// same model text, seeds and cycle span.
std::string in_process_campaign_doc() {
  DiagnosticSink sink;
  auto project = core::Project::from_xtm(ring_xtm(), ring_marks_text(), sink);
  EXPECT_NE(project, nullptr) << sink.to_string();
  DiagnosticSink fsink;
  marks::MarkSet fmarks =
      marks::MarkSet::from_text(faults_text(kWarm), fsink);
  fault::FaultSpec spec = fault::FaultSpec::from_marks(fmarks);
  fault::Campaign campaign(spec, kRuns, 1);
  fault::CampaignResult result = campaign.run([&](int index, std::uint64_t) {
    fault::Plan plan(campaign.spec_for(index));
    cosim::CoSimConfig cfg;
    cfg.fault = &plan;
    auto cs = project->make_cosim(cfg);
    cs->run_cycles(kWarm + kRun);
    return cosim::outcome_of(*cs, plan);
  });
  return result.to_snapshot().to_json(2);
}

obs::JsonValue campaign_req(std::uint64_t warm_cycles) {
  obs::JsonValue r = req({{"op", "campaign"},
                          {"model", "ring"},
                          {"faults", faults_text(kWarm)},
                          {"runs", kRuns},
                          {"run_cycles", kRun}});
  if (warm_cycles > 0) r["warm_cycles"] = warm_cycles;
  return r;
}

TEST(SnapServer, ColdCampaignMatchesInProcess) {
  Server server(test_config());
  load_ring(server);
  obs::JsonValue resp = server.handle_request(campaign_req(0));
  ASSERT_TRUE(ok(resp)) << error_of(resp);
  EXPECT_FALSE(resp.at("warm").as_bool());
  // Cold requests run warm_cycles + run_cycles per seed; with no
  // warm_cycles field the span is just run_cycles, so hand it the full
  // span explicitly to line up with the in-process document.
  obs::JsonValue full = req({{"op", "campaign"},
                             {"model", "ring"},
                             {"faults", faults_text(kWarm)},
                             {"runs", kRuns},
                             {"run_cycles", kWarm + kRun}});
  resp = server.handle_request(full);
  ASSERT_TRUE(ok(resp)) << error_of(resp);
  EXPECT_EQ(resp.at("campaign").dump(2), in_process_campaign_doc());
}

TEST(SnapServer, WarmCampaignMatchesColdAndHitsCache) {
  Server server(test_config());
  load_ring(server);
  obs::JsonValue warm1 = server.handle_request(campaign_req(kWarm));
  ASSERT_TRUE(ok(warm1)) << error_of(warm1);
  EXPECT_TRUE(warm1.at("warm").as_bool());
  EXPECT_FALSE(warm1.at("checkpoint_hit").as_bool());
  EXPECT_EQ(warm1.at("campaign").dump(2), in_process_campaign_doc());

  // Identical request again: served from the resident checkpoint, same
  // document.
  obs::JsonValue warm2 = server.handle_request(campaign_req(kWarm));
  ASSERT_TRUE(ok(warm2)) << error_of(warm2);
  EXPECT_TRUE(warm2.at("checkpoint_hit").as_bool());
  EXPECT_EQ(warm2.at("campaign").dump(2), warm1.at("campaign").dump(2));

  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.campaigns, 2u);
  EXPECT_EQ(s.checkpoints_built, 1u);
  EXPECT_EQ(s.checkpoint_hits, 1u);
  EXPECT_EQ(s.campaign_runs, static_cast<std::uint64_t>(2 * kRuns));
}

TEST(SnapServer, CampaignRejectsBadFaults) {
  Server server(test_config());
  load_ring(server);
  obs::JsonValue resp = server.handle_request(req({{"op", "campaign"},
                                                   {"model", "ring"},
                                                   {"faults", "faultRate.flitDrop = 3.5"},
                                                   {"runs", 2}}));
  EXPECT_FALSE(ok(resp));
  EXPECT_NE(error_of(resp).find("rejected"), std::string::npos);
}

// --- quotas and backpressure ---------------------------------------------------

TEST(SnapServer, QuotaRejectsPastBudget) {
  ServerConfig cfg = test_config();
  cfg.tenant_quota = 5;
  Server server(cfg);
  load_ring(server);
  // 4 runs fit the budget of 5; the next 4 would overdraw and are
  // rejected before any simulation happens.
  obs::JsonValue first = server.handle_request(campaign_req(kWarm), "alice");
  ASSERT_TRUE(ok(first)) << error_of(first);
  obs::JsonValue second = server.handle_request(campaign_req(kWarm), "alice");
  EXPECT_FALSE(ok(second));
  EXPECT_NE(error_of(second).find("quota"), std::string::npos);
  // Another tenant has its own budget.
  obs::JsonValue other = server.handle_request(campaign_req(kWarm), "bob");
  EXPECT_TRUE(ok(other)) << error_of(other);
  EXPECT_EQ(server.stats().rejected_quota, 1u);
}

TEST(SnapServer, BoundedQueueRejectsWhenBusy) {
  ServerConfig cfg = test_config();
  cfg.max_queue = 0;  // nobody waits: busy means rejected
  Server server(cfg);
  load_ring(server);

  // The campaign holds the executor inside the admission hook until the
  // probe has been answered, so the probe meets a busy server whichever
  // thread the scheduler happens to run first.
  std::promise<void> admitted;
  std::future<void> campaign_admitted = admitted.get_future();
  std::promise<void> probed;
  std::shared_future<void> probe_answered = probed.get_future().share();
  std::atomic<int> admissions{0};
  server.set_admission_hook([&] {
    if (admissions.fetch_add(1) == 0) {
      admitted.set_value();
      probe_answered.wait();
    }
  });
  obs::JsonValue campaign;
  std::thread long_request([&] {
    campaign = server.handle_request(req({{"op", "campaign"},
                                          {"model", "ring"},
                                          {"faults", faults_text()},
                                          {"runs", 2},
                                          {"run_cycles", 64}}),
                                     "worker");
  });
  campaign_admitted.wait();
  obs::JsonValue probe = server.handle_request(
      req({{"op", "run"}, {"model", "ring"}, {"cycles", 1}}), "prober");
  probed.set_value();
  long_request.join();

  const bool saw_busy =
      !ok(probe) && error_of(probe).find("busy") != std::string::npos;
  EXPECT_TRUE(saw_busy) << probe.dump(2);
  EXPECT_GE(server.stats().rejected_busy, 1u);
  EXPECT_TRUE(ok(campaign)) << error_of(campaign);
}

// --- stats section -------------------------------------------------------------

TEST(SnapServer, StatsSectionReportsConfigAndCounters) {
  Server server(test_config());
  load_ring(server);
  server.handle_request(req({{"op", "ping"}}));
  obs::JsonValue resp = server.handle_request(req({{"op", "stats"}}));
  ASSERT_TRUE(ok(resp));
  const obs::JsonValue& s = resp.at("server");
  EXPECT_EQ(s.at("threads").as_int(), 1);
  EXPECT_EQ(s.at("models_loaded").as_uint(), 1u);
  EXPECT_GE(s.at("requests").as_uint(), 2u);
}

// --- end to end over AF_UNIX ---------------------------------------------------

TEST(SnapServer, SocketRoundTripAndShutdown) {
  ServerConfig cfg = test_config();
  cfg.socket_path = ::testing::TempDir() + "snapd_test.sock";
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_TRUE(server.running());

  auto client = Client::connect(cfg.socket_path, &err);
  ASSERT_NE(client, nullptr) << err;
  std::optional<obs::JsonValue> resp =
      client->request(req({{"op", "ping"}}), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(ok(*resp));

  resp = client->request(req({{"op", "load"},
                              {"name", "ring"},
                              {"model", ring_xtm()},
                              {"marks", ring_marks_text()}}),
                         &err);
  ASSERT_TRUE(resp.has_value()) << err;
  ASSERT_TRUE(ok(*resp)) << error_of(*resp);
  resp = client->request(
      req({{"op", "run"}, {"model", "ring"}, {"cycles", 64}}), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(ok(*resp)) << error_of(*resp);

  resp = client->request(req({{"op", "shutdown"}}), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(ok(*resp));
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.stats().sessions, 1u);
}

}  // namespace
}  // namespace xtsoc::snap
