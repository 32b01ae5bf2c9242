// xtsoc_perfbench — the repository's end-to-end benchmark.
//
// One process runs one workload as a closed loop: a single caller issues
// each public call (core::Project::from_domain, CoSimulation::run_cycles,
// snap::save/restore, fault::Campaign / snap::WarmCampaign) and waits for it
// before issuing the next. The workload is generated from --seed; the run
// length is a fixed number of simulated cycles or campaign seeds derived
// from --seconds, never a wall-clock budget, so a faster simulator does the
// same simulated work in less time.
//
//   xtsoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//
// stdout receives one JSON document: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}, "fingerprint", "build"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, timed from this file around each call (nothing inside
// src/ is instrumented), and the spans are written as Chrome-trace JSON to
// --trace-out. perfbench/README.md explains each workload and metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xtsoc/common/rng.hpp"
#include "xtsoc/core/project.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/hwsim/pool.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/obs/json.hpp"
#include "xtsoc/snap/snapshot.hpp"
#include "xtsoc/snap/warm.hpp"
#include "xtsoc/xtuml/builder.hpp"

#ifndef XTSOC_PERFBENCH_BUILD_TYPE
#define XTSOC_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef XTSOC_PERFBENCH_COMPILER
#define XTSOC_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace xtsoc;
using runtime::InstanceHandle;
using runtime::Value;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start; every timing and span uses this clock.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans ---------------------------------------------------------------------

/// Small stable id per calling thread, for the trace's tid field.
int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next++;
  return tag;
}

/// In-memory span log. Spans are recorded after the fact from timings the
/// benchmark takes anyway, so a disabled tracer costs one branch.
class Tracer {
public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Record the finished span [start, end) on the now_s() clock under
  /// `parent` (-1 = root); returns its id, or -1 when tracing is off.
  int record(std::string name, double start, double end, int parent = -1) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), start, end, thread_tag(), parent});
    return id;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(const std::string& path) const {
    obs::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .field("name", s.name)
          .field("cat", "perfbench")
          .field("ph", "X")
          .field("ts", s.start * 1e6)
          .field("dur", (s.end - s.start) * 1e6)
          .field("pid", 1)
          .field("tid", s.tid)
          .key("args")
          .begin_object()
          .field("id", static_cast<std::int64_t>(i))
          .field("parent", s.parent)
          .end_object()
          .end_object();
    }
    w.end_array().field("displayTimeUnit", "ms").end_object();
    std::ofstream out(path, std::ios::binary);
    out << w.str() << '\n';
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

private:
  struct Span {
    std::string name;
    double start;
    double end;
    int tid;
    int parent;
  };
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- results -----------------------------------------------------------------------

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, for stderr
  std::string fingerprint;          ///< end-of-run observables digest
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
  bool correct() const { return errors.empty() && failed == 0; }
};

// --- workload models ---------------------------------------------------------------

std::string node(int i) { return "Node" + std::to_string(i); }

/// A random single cycle over `n` nodes: peer[i] is i's successor. Every
/// node has exactly one sender, so passed tokens stay spread evenly.
std::vector<int> ring_permutation(int n, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<int> peer(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    peer[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] =
        order[static_cast<std::size_t>((k + 1) % n)];
  }
  return peer;
}

constexpr std::uint64_t kLayoutSeed = 0x9e3779b9;

/// Everything a workload derives from its seed.
struct MeshModel {
  int width = 8;
  int height = 8;
  int nodes = 0;
  bool coherent = false;
  int dram_tile = -1;      ///< coherent only
  std::vector<int> tile;   ///< mesh tile of each node
  std::vector<int> peer;
  std::vector<std::int64_t> acc0;  ///< initial accumulator per node
  std::vector<std::int64_t> k;     ///< per-node loop constant (compute)
};

MeshModel make_model(int width, int height, bool coherent, std::uint64_t seed) {
  MeshModel m;
  m.width = width;
  m.height = height;
  m.coherent = coherent;
  // Tile 0 is the CPU tile. The coherent mesh also gives a central tile to
  // the DRAM edge and directory, so its traffic arrives over four links.
  if (coherent) m.dram_tile = (height / 2 - 1) * width + width / 2 - 1;
  for (int t = 1; t < width * height; ++t) {
    if (t != m.dram_tile) m.tile.push_back(t);
  }
  m.nodes = static_cast<int>(m.tile.size());
  // The peer layout comes from a fixed seed: token flight times, and with
  // them the work per simulated cycle, differ between random layouts, and
  // every run of a workload must measure the same amount of work. --seed
  // varies the data every node computes on, and the fault streams.
  Rng layout(kLayoutSeed);
  m.peer = ring_permutation(m.nodes, layout);
  Rng rng(splitmix64(seed));
  for (int i = 0; i < m.nodes; ++i) {
    m.acc0.push_back(static_cast<std::int64_t>(rng.below(65537)));
    m.k.push_back(1 + static_cast<std::int64_t>(rng.below(65536)));
  }
  return m;
}

// Token-conserving actions: every dispatch consumes one signal and emits
// exactly one, so each node's queue stays bounded by the tokens in the
// system, whatever the run length.
//
// Compute: 63 iterations of an affine map mod 65537 on seeded values, then
// every 16th dispatch of a node passes the token to its peer. Control flow
// depends on the dispatch count only, never on the seeded values, so every
// seed does the same amount of work: with a data-driven pass the token
// placement at any instant, and with it the work per cycle, varied by 19%
// between seeds.
constexpr const char* kSpin =
    "acc = self.acc;\n"
    "k = self.k;\n"
    "r = 0;\n"
    "while (r < 63)\n"
    "  acc = (acc * 33 + k) % 65537;\n"
    "  r = r + 1;\n"
    "end while;\n"
    "self.acc = acc;\n"
    "n = self.n + 1;\n"
    "self.n = n;\n"
    "if (n % 16 == 0)\n"
    "  generate ping(v: acc) to self.peer;\n"
    "else\n"
    "  generate tick() to self;\n"
    "end if;";

constexpr const char* kPinged =
    "self.pings = self.pings + param.v % 2;\n"
    "generate tick() to self;";

// Coherent: a light action over a 16-line private working set (the cache
// holds 8 lines: 4 sets x 2 ways), moving to the next line every 32nd
// dispatch, plus two lines shared by the node's group of about 8, read
// every 16th dispatch and written every 128th (GetS sharing and GetM
// invalidation). The token always moves on, so nodes idle while it
// crosses the fabric and the serial spine (fabric, memory timing, replay)
// carries the host time. The directory's NIC injects one flit per cycle;
// these rates keep it about a third busy, so load-to-use latency stays
// flat over the run instead of queueing without bound.
constexpr const char* kWork =
    "n = self.cur;\n"
    "a = self.base + ((n / 32) % 16) * 32;\n"
    "x = mem.read(a);\n"
    "if (n % 2 == 0)\n"
    "  mem.write(a, (x + param.v) % 65537);\n"
    "end if;\n"
    "y = 0;\n"
    "if (n % 16 == 0)\n"
    "  s = self.shared + ((n / 16) % 2) * 32;\n"
    "  y = mem.read(s);\n"
    "  if (n % 128 == 0)\n"
    "    mem.write(s, (y + 1) % 65537);\n"
    "  end if;\n"
    "end if;\n"
    "self.cur = n + 1;\n"
    "self.acc = (self.acc * 31 + x + y) % 65537;\n"
    "generate tok(v: self.acc) to self.peer;";

std::unique_ptr<xtuml::Domain> make_domain(const MeshModel& m) {
  using xtuml::DataType;
  xtuml::DomainBuilder b(m.coherent ? "CoherentMesh" : "ComputeMesh");
  for (int i = 0; i < m.nodes; ++i) b.cls(node(i));
  for (int i = 0; i < m.nodes; ++i) {
    const std::string peer = node(m.peer[static_cast<std::size_t>(i)]);
    auto c = b.edit(node(i));
    if (m.coherent) {
      c.attr("acc", DataType::kInt)
          .attr("cur", DataType::kInt)
          .attr("base", DataType::kInt)
          .attr("shared", DataType::kInt)
          .ref_attr("peer", peer)
          .event("tok", {{"v", DataType::kInt}})
          .state("Work", kWork)
          .transition("Work", "tok", "Work");
    } else {
      c.attr("acc", DataType::kInt)
          .attr("k", DataType::kInt)
          .attr("n", DataType::kInt)
          .attr("pings", DataType::kInt)
          .ref_attr("peer", peer)
          .event("tick")
          .event("ping", {{"v", DataType::kInt}})
          .state("Spin", kSpin)
          .state("Pinged", kPinged)
          .transition("Spin", "tick", "Spin")
          .transition("Spin", "ping", "Pinged")
          .transition("Pinged", "tick", "Spin")
          .transition("Pinged", "ping", "Pinged");
    }
  }
  return b.take();
}

marks::MarkSet make_marks(const MeshModel& m) {
  marks::MarkSet marks;
  auto i64 = [](std::int64_t v) { return xtuml::ScalarValue(v); };
  for (int i = 0; i < m.nodes; ++i) {
    const int tile = m.tile[static_cast<std::size_t>(i)];
    marks.mark_hardware(node(i));
    marks.set_class_mark(node(i), marks::kTileX, i64(tile % m.width));
    marks.set_class_mark(node(i), marks::kTileY, i64(tile / m.width));
  }
  marks.set_domain_mark(marks::kMeshWidth, i64(m.width));
  marks.set_domain_mark(marks::kMeshHeight, i64(m.height));
  // A 4-cycle link gives the scheduler a 4-cycle window.
  marks.set_domain_mark(marks::kLinkLatency, i64(4));
  if (m.coherent) {
    marks.set_domain_mark(marks::kDramTile, i64(m.dram_tile));
    marks.set_domain_mark(marks::kCacheSets, i64(4));
    marks.set_domain_mark(marks::kCacheWays, i64(2));
    marks.set_domain_mark(marks::kCacheLineBytes, i64(32));
    // 32-byte links carry a line fill in two flits.
    marks.set_domain_mark(marks::kFlitBytes, i64(32));
  }
  return marks;
}

std::unique_ptr<core::Project> make_project(const MeshModel& m) {
  DiagnosticSink sink;
  auto p = core::Project::from_domain(make_domain(m), make_marks(m), sink);
  if (!p) throw std::runtime_error("project: " + sink.to_string());
  return p;
}

AttributeId attr_id(const core::Project& p, int i, const char* name) {
  const auto* a = p.domain().find_class(node(i))->find_attribute(name);
  if (a == nullptr) throw std::logic_error(std::string("no attribute ") + name);
  return a->id;
}

/// Create every node, set its seeded attributes and peer, and give it its
/// one token.
std::vector<InstanceHandle> populate(cosim::CoSimulation& cs,
                                     const core::Project& p,
                                     const MeshModel& m) {
  std::vector<InstanceHandle> h;
  h.reserve(static_cast<std::size_t>(m.nodes));
  for (int i = 0; i < m.nodes; ++i) h.push_back(cs.create(node(i)));
  for (int i = 0; i < m.nodes; ++i) {
    const auto u = static_cast<std::size_t>(i);
    auto& db = cs.executor_of(h[u].cls).database();
    db.set_attr(h[u], attr_id(p, i, "acc"), Value(m.acc0[u]));
    db.set_attr(h[u], attr_id(p, i, "peer"),
                Value(h[static_cast<std::size_t>(m.peer[u])]));
    if (m.coherent) {
      db.set_attr(h[u], attr_id(p, i, "base"),
                  Value(std::int64_t{4096} * (i + 1)));
      db.set_attr(h[u], attr_id(p, i, "shared"),
                  Value(std::int64_t{1 << 20} + 64 * (i % 8)));
      cs.inject(h[u], "tok", {Value(m.k[u])});
    } else {
      db.set_attr(h[u], attr_id(p, i, "k"), Value(m.k[u]));
      // Stagger the nodes' pass phases (fixed, like the layout).
      db.set_attr(h[u], attr_id(p, i, "n"), Value(std::int64_t{i * 5 % 16}));
      cs.inject(h[u], "tick");
    }
  }
  return h;
}

/// The observables the lockstep oracle compares: the report's sim,
/// interconnect, domains and memory sections plus every node's final state
/// and attributes.
std::string observables(const cosim::CoSimulation& cs, const core::Project& p,
                        const std::vector<InstanceHandle>& nodes) {
  const obs::Snapshot report = cs.report();
  std::string s;
  for (const char* section : {"sim", "interconnect", "domains", "memory"}) {
    if (const obs::JsonValue* v = report.find(section)) {
      s += section;
      s += v->dump();
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& db = cs.executor_of(nodes[i].cls).database();
    s += '|';
    s += std::to_string(db.current_state(nodes[i]).value());
    for (const auto& a : p.domain().find_class(node(static_cast<int>(i)))
                             ->attributes) {
      s += ',';
      s += runtime::to_string(db.get_attr(nodes[i], a.id));
    }
  }
  return s;
}

// --- counters read between calls ------------------------------------------------

/// The counters each module exposes, read between two calls.
struct Counters {
  cosim::CoSimulation::PhaseSeconds phase;
  std::uint64_t cycles = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> domain_ops;  ///< per hardware domain
  std::size_t queue_high_water = 0;       ///< max over every domain
  hwsim::SimStats sim;
  std::uint64_t flits = 0;
  double frame_latency_mean = 0.0;
  mem::MemStats mem;
};

Counters sample(const cosim::CoSimulation& cs) {
  Counters c;
  c.phase = cs.phase_seconds();
  c.cycles = cs.cycles();
  for (const auto& d : cs.hw_domains()) {
    const runtime::Executor& e = d->executor();
    c.dispatches += e.dispatch_count();
    c.ops += e.ops_executed();
    c.domain_ops.push_back(e.ops_executed());
    c.queue_high_water = std::max(c.queue_high_water, e.queue_high_water());
  }
  const runtime::Executor& sw = cs.sw_executor();
  c.dispatches += sw.dispatch_count();
  c.ops += sw.ops_executed();
  c.queue_high_water = std::max(c.queue_high_water, sw.queue_high_water());
  c.sim = cs.hw_sim().stats();
  if (cs.has_fabric()) {
    const noc::FabricStats f = cs.fabric().stats();
    c.flits = f.flits_injected;
    c.frame_latency_mean = f.latency.mean();
  }
  if (const mem::System* m = cs.mem_system()) c.mem = m->stats();
  return c;
}

/// Sums of counter deltas over the measured calls (slices or seeds).
struct LayerTotals {
  double wall = 0, boundary = 0, phase_a = 0, phase_b = 0;
  double cycles = 0, dispatches = 0, ops = 0;
  std::vector<double> domain_ops;
  double delta_cycles = 0, activations = 0, wire_commits = 0;
  double flits = 0;
  double loads = 0, stores = 0, hits = 0, misses = 0, coh_flits = 0;
  double dram = 0, dram_row_hits = 0;
  double load_use_sum = 0, load_use_count = 0;

  void add(const Counters& a, const Counters& b, double wall_s) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    wall += wall_s;
    boundary += b.phase.boundary - a.phase.boundary;
    phase_a += b.phase.phase_a - a.phase.phase_a;
    phase_b += b.phase.phase_b - a.phase.phase_b;
    cycles += d(a.cycles, b.cycles);
    dispatches += d(a.dispatches, b.dispatches);
    ops += d(a.ops, b.ops);
    domain_ops.resize(b.domain_ops.size(), 0.0);
    for (std::size_t i = 0; i < b.domain_ops.size(); ++i) {
      domain_ops[i] += d(a.domain_ops[i], b.domain_ops[i]);
    }
    delta_cycles += d(a.sim.delta_cycles, b.sim.delta_cycles);
    activations += d(a.sim.process_activations, b.sim.process_activations);
    wire_commits += d(a.sim.wire_commits, b.sim.wire_commits);
    flits += d(a.flits, b.flits);
    loads += d(a.mem.loads, b.mem.loads);
    stores += d(a.mem.stores, b.mem.stores);
    hits += d(a.mem.hits, b.mem.hits);
    misses += d(a.mem.misses, b.mem.misses);
    coh_flits += d(a.mem.coh_flits, b.mem.coh_flits);
    dram += d(a.mem.dram_reads + a.mem.dram_writes,
              b.mem.dram_reads + b.mem.dram_writes);
    dram_row_hits += d(a.mem.dram_row_hits, b.mem.dram_row_hits);
    load_use_sum += d(a.mem.load_use_sum, b.mem.load_use_sum);
    load_use_count += d(a.mem.load_use_count, b.mem.load_use_count);
  }
};

/// The cosim, runtime, hwsim, noc and mem per-layer metrics. `end` is the
/// last counter sample (for high-water marks and running means).
void add_layer_metrics(Result& r, const LayerTotals& t, const Counters& end) {
  const double phases = t.boundary + t.phase_a + t.phase_b;
  r.add("cosim.boundary_share", ratio(t.boundary, t.wall), "ratio");
  r.add("cosim.phaseA_share", ratio(t.phase_a, t.wall), "ratio");
  r.add("cosim.phaseB_share", ratio(t.phase_b, t.wall), "ratio");
  r.add("cosim.phase_coverage", ratio(phases, t.wall), "ratio");
  r.add("cosim.phaseA_us_per_cycle", ratio(t.phase_a * 1e6, t.cycles),
        "us/cycle");
  r.add("cosim.phaseB_us_per_cycle", ratio(t.phase_b * 1e6, t.cycles),
        "us/cycle");
  r.add("runtime.dispatches_per_cycle", ratio(t.dispatches, t.cycles),
        "1/cycle");
  r.add("runtime.ops_per_cycle", ratio(t.ops, t.cycles), "ops/cycle");
  r.add("runtime.ns_per_op", ratio(t.phase_a * 1e9, t.ops), "ns/op");
  double ops_max = 0.0, ops_sum = 0.0;
  for (double o : t.domain_ops) {
    ops_max = std::max(ops_max, o);
    ops_sum += o;
  }
  r.add("runtime.domain_ops_imbalance",
        t.domain_ops.empty()
            ? 0.0
            : ratio(ops_max, ops_sum / static_cast<double>(t.domain_ops.size())),
        "x");
  r.add("runtime.queue_high_water_max",
        static_cast<double>(end.queue_high_water), "count");
  r.add("hwsim.delta_cycles_per_cycle", ratio(t.delta_cycles, t.cycles),
        "1/cycle");
  r.add("hwsim.process_activations_per_cycle", ratio(t.activations, t.cycles),
        "1/cycle");
  r.add("hwsim.wire_commits_per_cycle", ratio(t.wire_commits, t.cycles),
        "1/cycle");
  r.add("noc.flits_per_cycle", ratio(t.flits, t.cycles), "flits/cycle");
  r.add("noc.frame_latency_mean_cycles", end.frame_latency_mean, "cycles");
  r.add("noc.phaseB_ns_per_flit", ratio(t.phase_b * 1e9, t.flits), "ns/flit");
  r.add("mem.accesses_per_cycle", ratio(t.loads + t.stores, t.cycles),
        "1/cycle");
  r.add("mem.miss_rate", ratio(t.misses, t.hits + t.misses), "ratio");
  r.add("mem.coh_flit_share", ratio(t.coh_flits, t.flits), "ratio");
  r.add("mem.mean_load_use_cycles", ratio(t.load_use_sum, t.load_use_count),
        "cycles");
  r.add("mem.dram_row_hit_rate", ratio(t.dram_row_hits, t.dram), "ratio");
}

struct SnapCost {
  double save_s = 0;
  double kb = 0;
  double restore_ms = 0;
};

/// snap::save of `live` and snap::restore into fresh co-simulations, three
/// times each (medians). Restores must reproduce `live`'s observables.
SnapCost measure_snap(const cosim::CoSimulation& live, const core::Project& p,
                      const std::vector<InstanceHandle>& nodes,
                      const cosim::CoSimConfig& cfg, Tracer& tracer,
                      Result& r) {
  constexpr int kReps = 3;
  std::vector<double> save_s, restore_ms;
  std::vector<std::uint8_t> bytes;
  const std::string want = observables(live, p, nodes);
  for (int i = 0; i < kReps; ++i) {
    const double t0 = now_s();
    bytes = snap::save(live);
    const double t1 = now_s();
    tracer.record("snap.save", t0, t1);
    save_s.push_back(t1 - t0);
  }
  for (int i = 0; i < kReps; ++i) {
    cosim::CoSimulation fresh(p.system(), cfg);
    const double t0 = now_s();
    snap::restore(fresh, bytes.data(), bytes.size());
    const double t1 = now_s();
    tracer.record("snap.restore", t0, t1);
    restore_ms.push_back((t1 - t0) * 1e3);
    if (observables(fresh, p, nodes) != want) {
      r.fail("restored snapshot differs from the live co-simulation");
    }
  }
  return {median(save_s), static_cast<double>(bytes.size()) / 1024.0,
          median(restore_ms)};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Set-up is timed kSetupSamples times, the later ones as throwaway set-ups
/// spread evenly over the measured work, and setup_s is the median: a burst
/// of back-to-back set-ups at the start would all see the same momentary
/// host conditions.
struct SetupTimes {
  std::vector<double> total, project, elaborate;
};
constexpr int kSetupSamples = 15;

/// True when unit `i` of `n` measured units should be preceded by a
/// throwaway set-up, `taken` samples having been taken before the loop.
bool probe_due(std::uint64_t i, std::uint64_t n, int taken,
               std::uint64_t align = 1) {
  const std::uint64_t probes = kSetupSamples - taken;
  const std::uint64_t every = std::max<std::uint64_t>(
      align, n / (probes + 1) / align * align);
  return i > 0 && i % every == 0 && i / every <= probes;
}

// --- mesh_compute / mesh_coherent ----------------------------------------------------

/// Both meshes: 8x8, threads=3 (one core left to the OS and harness),
/// default window (the 4-cycle lookahead).
struct MeshShape {
  bool coherent;
  std::uint64_t warm_cycles;
  std::uint64_t slice_cycles;
  /// Simulated cycles measured per requested second. Fixed, so the run
  /// length depends on --seconds only, never on host speed.
  std::uint64_t cycles_per_second;
};

constexpr MeshShape kComputeShape{false, 2000, 100, 10000};
constexpr MeshShape kCoherentShape{true, 2000, 100, 32000};
constexpr int kMeshThreads = 3;
/// Identical co-simulations measured in turn, kChunkSlices slices each.
/// Each one's heap layout differs, which alone moves throughput by several
/// percent; pooling the slices of several independently built simulations,
/// interleaved in time, averages that luck out of one run.
constexpr int kMeshSims = 5;
constexpr int kChunkSlices = 10;

struct Built {
  std::unique_ptr<core::Project> project;
  std::unique_ptr<cosim::CoSimulation> cs;
  std::vector<InstanceHandle> nodes;
};

/// Model build (OAL compile, marks validation, mapping), then elaboration
/// and population, timed into `times`.
Built build_mesh(const MeshModel& model, const cosim::CoSimConfig& cfg,
                 SetupTimes& times, Tracer& tracer) {
  Built b;
  const double t0 = now_s();
  b.project = make_project(model);
  const double t1 = now_s();
  b.cs = std::make_unique<cosim::CoSimulation>(b.project->system(), cfg);
  b.nodes = populate(*b.cs, *b.project, model);
  const double t2 = now_s();
  const int id = tracer.record("setup", t0, t2);
  tracer.record("core.project", t0, t1, id);
  tracer.record("cosim.elaborate", t1, t2, id);
  times.total.push_back(t2 - t0);
  times.project.push_back(t1 - t0);
  times.elaborate.push_back(t2 - t1);
  return b;
}

Result run_mesh(const Options& opt, const MeshShape& shape, Tracer& tracer) {
  Result r;
  const MeshModel model = make_model(8, 8, shape.coherent, opt.seed);
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.threads = kMeshThreads;

  SetupTimes setup;
  std::vector<Built> sims;
  for (int k = 0; k < kMeshSims; ++k) {
    sims.push_back(build_mesh(model, cfg, setup, tracer));
  }

  // Oracle: a threads=1, window=1 lockstep run of the same seed must reach
  // the same observables at the end of warm-up.
  std::string lockstep;
  {
    const Built& b = sims.front();
    cosim::CoSimConfig ref_cfg = cfg;
    ref_cfg.threads = 1;
    ref_cfg.window = 1;
    const double t0 = now_s();
    cosim::CoSimulation ref(b.project->system(), ref_cfg);
    const auto ref_nodes = populate(ref, *b.project, model);
    ref.run_cycles(shape.warm_cycles);
    lockstep = observables(ref, *b.project, ref_nodes);
    tracer.record("oracle.lockstep", t0, now_s());
  }
  std::vector<Counters> warm;
  for (const Built& b : sims) {
    const double t0 = now_s();
    b.cs->run_cycles(shape.warm_cycles);
    tracer.record("warmup", t0, now_s());
    if (observables(*b.cs, *b.project, b.nodes) != lockstep) {
      r.fail("end-of-warm-up observables differ from the lockstep run");
    }
    warm.push_back(sample(*b.cs));
  }

  const std::uint64_t per_round =
      shape.slice_cycles * kChunkSlices * kMeshSims;
  const std::uint64_t slices =
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 opt.seconds * static_cast<double>(shape.cycles_per_second)) /
                 per_round) *
      kChunkSlices * kMeshSims;
  std::vector<double> slice_s;
  std::vector<double> sim_wall(kMeshSims, 0.0);
  std::vector<double> traced_s, untraced_s;  // trace overhead, alternating
  for (std::uint64_t i = 0; i < slices && r.failed == 0; ++i) {
    if (probe_due(i, slices, kMeshSims, kChunkSlices)) {
      build_mesh(model, cfg, setup, tracer);
    }
    ++r.attempted;
    const std::size_t k = i / kChunkSlices % kMeshSims;
    cosim::CoSimulation& cs = *sims[k].cs;
    // With --trace 1, odd slices also read the phase split and record child
    // spans; even slices run bare, so trace.overhead_pct compares the two.
    const bool traced = tracer.on() && i % 2 == 1;
    const cosim::CoSimulation::PhaseSeconds p0 =
        traced ? cs.phase_seconds() : cosim::CoSimulation::PhaseSeconds{};
    const double t0 = now_s();
    try {
      cs.run_cycles(shape.slice_cycles);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(std::string("run_cycles threw: ") + e.what());
    }
    const double t1 = now_s();
    slice_s.push_back(t1 - t0);
    sim_wall[k] += t1 - t0;
    if (tracer.on()) (traced ? traced_s : untraced_s).push_back(t1 - t0);
    if (traced) {
      const cosim::CoSimulation::PhaseSeconds p1 = cs.phase_seconds();
      const int id = tracer.record("cosim.run_cycles", t0, t1);
      // The phases interleave window by window; the child spans lay each
      // phase's total for the slice end to end.
      double at = t0;
      for (const auto& [name, secs] :
           {std::pair<const char*, double>{"cosim.boundary",
                                           p1.boundary - p0.boundary},
            {"cosim.phaseA", p1.phase_a - p0.phase_a},
            {"cosim.phaseB", p1.phase_b - p0.phase_b}}) {
        tracer.record(name, at, at + secs, id);
        at += secs;
      }
    }
  }
  std::vector<Counters> end;
  for (const Built& b : sims) end.push_back(sample(*b.cs));

  // Steadiness: the token-conserving model keeps queues flat, so the high
  // water may not more than double after warm-up.
  if (end[0].queue_high_water > 2 * warm[0].queue_high_water) {
    r.fail("queue high water grew from " +
           std::to_string(warm[0].queue_high_water) + " to " +
           std::to_string(end[0].queue_high_water));
  }
  {
    const double t0 = now_s();
    for (const Built& b : sims) {
      const std::string fp =
          hex64(fnv1a(observables(*b.cs, *b.project, b.nodes)));
      if (r.fingerprint.empty()) {
        r.fingerprint = fp;
      } else if (fp != r.fingerprint) {
        r.fail("identical co-simulations ended with different observables");
      }
    }
    tracer.record("cosim.report", t0, now_s());
  }
  if (!r.correct()) r.failed = r.attempted;

  const double slice_med = median(slice_s);
  if (!tracer.on()) {
    r.add("sim_cycles_per_s",
          ratio(static_cast<double>(shape.slice_cycles), slice_med),
          "cycles/s");
    r.add("setup_s", median(setup.total), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  LayerTotals t;
  for (std::size_t k = 0; k < sims.size(); ++k) {
    t.add(warm[k], end[k], sim_wall[k]);
  }
  r.add("core.project_s", median(setup.project), "s");
  r.add("cosim.elaborate_s", median(setup.elaborate), "s");
  add_layer_metrics(r, t, end[0]);
  r.add("cosim.slice_ms_p50", slice_med * 1e3, "ms");
  r.add("cosim.slice_ms_p99", quantile(slice_s, 0.99) * 1e3, "ms");
  // First-quarter slice rate over last-quarter rate: above 1 means cost
  // grows with simulated history.
  const std::size_t q = std::max<std::size_t>(1, slice_s.size() / 4);
  const std::vector<double> first(slice_s.begin(), slice_s.begin() + q);
  const std::vector<double> last(slice_s.end() - q, slice_s.end());
  r.add("cosim.drift_ratio", ratio(median(last), median(first)), "x");
  const Built& b = sims.front();
  const SnapCost snap = measure_snap(*b.cs, *b.project, b.nodes, cfg, tracer, r);
  r.add("snap.checkpoint_s", snap.save_s, "s");
  r.add("snap.checkpoint_kb", snap.kb, "KiB");
  r.add("snap.restore_ms_p50", snap.restore_ms, "ms");
  // No fault layer on the meshes.
  r.add("fault.run_ms_p50", 0.0, "ms");
  r.add("fault.straggler_ratio", 0.0, "x");
  r.add("fault.injected_per_run", 0.0, "count");
  r.add("fault.retried_per_run", 0.0, "count");
  r.add("fault.survival_rate", 0.0, "ratio");
  r.add("fault.campaign_runs_per_s", 0.0, "1/s");
  r.add("trace.overhead_pct",
        100.0 * (ratio(median(traced_s), median(untraced_s)) - 1.0), "%");
  if (!r.correct()) r.failed = r.attempted;
  return r;
}

// --- campaign_warm -------------------------------------------------------------------

constexpr int kCampaignSeeds = 24;        ///< seeds per campaign
constexpr int kCampaignThreads = 3;       ///< concurrent seeds
constexpr std::uint64_t kCampaignWarm = 2000;
constexpr std::uint64_t kCampaignRun = 250;
/// Campaigns measured per requested second (fixed; see MeshShape).
constexpr double kCampaignsPerSecond = 9.0;

Result run_campaign(const Options& opt, Tracer& tracer) {
  Result r;
  const MeshModel model = make_model(4, 4, false, opt.seed);
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.threads = 1;
  fault::FaultSpec spec;
  spec.seed = opt.seed;
  spec.flit_drop = 0.01;
  spec.flit_corrupt = 0.01;
  spec.window_start = kCampaignWarm;  // faults open after the checkpoint

  // Set-up: model build, then the warm checkpoint (elaborate, populate,
  // warm-up, snapshot).
  SetupTimes setup;
  struct Warm {
    std::unique_ptr<core::Project> project;
    std::unique_ptr<snap::WarmCampaign> campaign;
  };
  auto build = [&] {
    Warm w;
    const double t0 = now_s();
    w.project = make_project(model);
    const double t1 = now_s();
    const core::Project& p = *w.project;
    w.campaign = std::make_unique<snap::WarmCampaign>(
        p.system(), cfg, spec, kCampaignWarm, kCampaignRun,
        [&p, &model](cosim::CoSimulation& cs) { populate(cs, p, model); });
    const double t2 = now_s();
    const int id = tracer.record("setup", t0, t2);
    tracer.record("core.project", t0, t1, id);
    tracer.record("snap.warm_checkpoint", t1, t2, id);
    setup.total.push_back(t2 - t0);
    setup.project.push_back(t1 - t0);
    return w;
  };
  const Warm warm = build();
  // One pool serves every campaign, as a long-lived campaign server would
  // keep it: threads spawned per campaign can start out sharing a core until
  // the scheduler spreads them, which adds run-to-run noise.
  hwsim::WorkerPool pool(kCampaignThreads);
  const core::Project& project = *warm.project;
  const std::vector<std::uint8_t>& bytes = warm.campaign->checkpoint();

  // The same campaign driven by hand through fault::Campaign: elaborate ->
  // snap::restore -> run_cycles -> outcome_of, each step timed, the module
  // counters read around the run. It must reproduce WarmCampaign::run's
  // document byte for byte.
  struct SeedRecord {
    double elaborate_s = 0, restore_s = 0, run_s = 0, total_s = 0;
    Counters before, after;
  };
  std::vector<SeedRecord> records;  // every traced seed, campaign by campaign
  auto hand_driven = [&] {
    std::vector<SeedRecord> seeds(kCampaignSeeds);
    fault::Campaign campaign(spec, kCampaignSeeds, kCampaignThreads);
    fault::CampaignResult res = campaign.run(
        [&](int index, std::uint64_t seed) {
          SeedRecord& rec = seeds[static_cast<std::size_t>(index)];
          const double t0 = now_s();
          fault::FaultSpec s = spec;
          s.seed = seed;
          fault::Plan plan(s);
          cosim::CoSimConfig c = cfg;
          c.fault = &plan;
          cosim::CoSimulation cs(project.system(), c);
          const double t1 = now_s();
          snap::RestoreOptions ro;
          ro.load_fault_streams = false;  // keep this seed's fresh streams
          snap::restore(cs, bytes.data(), bytes.size(), &plan, nullptr, ro);
          const double t2 = now_s();
          if (tracer.on()) rec.before = sample(cs);
          cs.run_cycles(kCampaignRun);
          const double t3 = now_s();
          if (tracer.on()) rec.after = sample(cs);
          fault::RunOutcome out = cosim::outcome_of(cs, plan);
          out.seed = seed;
          const double t4 = now_s();
          const int id = tracer.record("fault.seed", t0, t4);
          tracer.record("cosim.elaborate", t0, t1, id);
          tracer.record("snap.restore", t1, t2, id);
          tracer.record("cosim.run_cycles", t2, t3, id);
          tracer.record("cosim.outcome_of", t3, t4, id);
          rec.elaborate_s = t1 - t0;
          rec.restore_s = t2 - t1;
          rec.run_s = t3 - t2;
          rec.total_s = t4 - t0;
          return out;
        },
        &pool);
    if (tracer.on()) records.insert(records.end(), seeds.begin(), seeds.end());
    return res;
  };

  // With --trace 1, odd campaigns are the traced hand-driven ones and even
  // campaigns run bare through WarmCampaign::run, so trace.overhead_pct
  // compares the two. Untraced runs check the hand-driven campaign once,
  // after the measurement.
  const int campaigns = std::max(
      1, static_cast<int>(opt.seconds * kCampaignsPerSecond));
  std::vector<double> bare_s, traced_s, straggler;
  std::string document;
  fault::CampaignResult outcome;  // the first campaign's
  auto check = [&](const fault::CampaignResult& res, const char* what) {
    std::string doc = res.to_snapshot().to_json();
    if (document.empty()) {
      document = std::move(doc);
      outcome = res;
    } else if (doc != document) {
      r.fail(std::string(what) + " differs from the first campaign");
    }
  };
  for (int c = 0; c < campaigns && r.failed == 0; ++c) {
    if (probe_due(c, campaigns, 1)) build();
    r.attempted += kCampaignSeeds;
    const bool traced = tracer.on() && c % 2 == 1;
    const std::size_t first = records.size();
    const double t0 = now_s();
    try {
      const fault::CampaignResult res =
          traced ? hand_driven()
                 : warm.campaign->run(kCampaignSeeds, kCampaignThreads, &pool);
      const double t1 = now_s();
      tracer.record(traced ? "fault.Campaign.run" : "snap.WarmCampaign.run",
                    t0, t1);
      (traced ? traced_s : bare_s).push_back(t1 - t0);
      check(res, traced ? "the hand-driven campaign" : "WarmCampaign::run");
    } catch (const std::exception& e) {
      r.failed += kCampaignSeeds;
      r.fail(std::string("campaign threw: ") + e.what());
    }
    if (traced && records.size() == first + kCampaignSeeds) {
      std::vector<double> total;
      for (std::size_t i = first; i < records.size(); ++i) {
        total.push_back(records[i].total_s);
      }
      straggler.push_back(ratio(*std::max_element(total.begin(), total.end()),
                                median(total)));
    }
  }
  if (!tracer.on() && r.failed == 0) {
    try {
      check(hand_driven(), "the hand-driven campaign");
    } catch (const std::exception& e) {
      r.fail(std::string("hand-driven campaign threw: ") + e.what());
    }
  }
  r.fingerprint = hex64(fnv1a(document));
  if (!r.correct()) r.failed = r.attempted;

  const double per_campaign = median(bare_s);
  if (!tracer.on()) {
    r.add("sim_cycles_per_s",
          ratio(static_cast<double>(kCampaignSeeds * kCampaignRun),
                per_campaign),
          "cycles/s");
    r.add("setup_s", median(setup.total), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  LayerTotals t;
  std::vector<double> elaborate_s, restore_ms, run_ms, total_ms;
  Counters last;
  for (const SeedRecord& rec : records) {
    t.add(rec.before, rec.after, rec.run_s);
    elaborate_s.push_back(rec.elaborate_s);
    restore_ms.push_back(rec.restore_s * 1e3);
    run_ms.push_back(rec.run_s * 1e3);
    total_ms.push_back(rec.total_s * 1e3);
    if (rec.after.queue_high_water > last.queue_high_water) last = rec.after;
  }
  r.add("core.project_s", median(setup.project), "s");
  r.add("cosim.elaborate_s", median(elaborate_s), "s");
  add_layer_metrics(r, t, last);
  r.add("cosim.slice_ms_p50", median(run_ms), "ms");
  r.add("cosim.slice_ms_p99", quantile(run_ms, 0.99), "ms");
  const auto q = static_cast<std::ptrdiff_t>(
      std::max<std::size_t>(1, run_ms.size() / 4));
  r.add("cosim.drift_ratio",
        ratio(median({run_ms.end() - q, run_ms.end()}),
              median({run_ms.begin(), run_ms.begin() + q})),
        "x");

  // Save cost on a restored co-simulation; restore cost is the per-seed one.
  {
    cosim::CoSimulation cs(project.system(), cfg);
    snap::restore(cs, bytes.data(), bytes.size());
    std::vector<double> save_s;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      (void)snap::save(cs);
      const double t1 = now_s();
      tracer.record("snap.save", t0, t1);
      save_s.push_back(t1 - t0);
    }
    r.add("snap.checkpoint_s", median(save_s), "s");
  }
  r.add("snap.checkpoint_kb", static_cast<double>(bytes.size()) / 1024.0,
        "KiB");
  r.add("snap.restore_ms_p50", median(restore_ms), "ms");

  // Outcomes are identical in every campaign (checked above).
  double injected = 0, retried = 0;
  for (const fault::RunOutcome& o : outcome.runs) {
    injected += static_cast<double>(o.injected);
    retried += static_cast<double>(o.retried);
  }
  const auto runs = static_cast<double>(outcome.runs.size());
  r.add("fault.run_ms_p50", median(total_ms), "ms");
  r.add("fault.straggler_ratio", median(straggler), "x");
  r.add("fault.injected_per_run", ratio(injected, runs), "count");
  r.add("fault.retried_per_run", ratio(retried, runs), "count");
  r.add("fault.survival_rate",
        ratio(static_cast<double>(outcome.survivors()), runs), "ratio");
  r.add("fault.campaign_runs_per_s", ratio(kCampaignSeeds, per_campaign),
        "1/s");
  r.add("trace.overhead_pct",
        100.0 * (ratio(median(traced_s), per_campaign) - 1.0), "%");
  return r;
}

// --- main ----------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xtsoc_perfbench: %s\n"
               "usage: xtsoc_perfbench --workload mesh_compute|mesh_coherent|"
               "campaign_warm --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::string_view(v) == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "xtsoc_perfbench: built without optimisation (%s); refusing "
               "to report timings\n",
               XTSOC_PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const Options opt = parse(argc, argv);
  Tracer tracer(opt.trace);
  Result r;
  try {
    if (opt.workload == "mesh_compute") {
      r = run_mesh(opt, kComputeShape, tracer);
    } else if (opt.workload == "mesh_coherent") {
      r = run_mesh(opt, kCoherentShape, tracer);
    } else if (opt.workload == "campaign_warm") {
      r = run_campaign(opt, tracer);
    } else {
      usage("unknown workload");
    }
    if (tracer.on() && !opt.trace_out.empty()) {
      tracer.write_chrome(opt.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xtsoc_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "xtsoc_perfbench: check failed: %s\n", e.c_str());
  }

  obs::JsonWriter w;
  w.begin_object()
      .field("correct", r.correct())
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .key("metrics")
      .begin_object();
  for (const Result::Metric& m : r.metrics) {
    w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit)
        .end_object();
  }
  w.end_object()
      .field("fingerprint", r.fingerprint)
      .key("build")
      .begin_object()
      .field("compiler", XTSOC_PERFBENCH_COMPILER)
      .field("build_type", XTSOC_PERFBENCH_BUILD_TYPE)
      .end_object()
      .end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
