// CoSimulation: the partitioned executable system.
//
// Owns the hwsim kernel (the master clock and the observability wires),
// the hardware domains, the SwDomain and the interconnect between them. The
// interconnect is picked from the marks:
//
//   * no tile marks — the legacy point-to-point Bus with one HwDomain
//     owning every hardware class (the 1x2 degenerate topology);
//   * tile marks present — a cycle-accurate noc::Fabric 2D mesh, one
//     HwDomain per occupied hardware tile plus the SwDomain on its own
//     tile, each behind a NIC (FabricChannel).
//
// The conservative-lookahead scheduler. Every frame that crosses a domain
// boundary spends at least L cycles in flight: L is the busLatency mark on
// the bus (floored at 1, see below), and the NIC-egress link traversal
// (link_latency) on the mesh (mapping::MappedSystem::lookahead()). That
// static bound means a frame sent at cycle c cannot influence any other
// domain before cycle c + L — so the master may run every domain L cycles
// ahead without hearing from the others (Chandy–Misra–Bryant conservative
// lookahead, derived from the marks instead of negotiated at runtime).
// Every run, serial or parallel, executes in windows of W = min(window, L)
// cycles, each in three steps:
//
//   boundary (serial)  every domain pulls the frames due inside the coming
//                      window from the shared interconnect into a private
//                      inbox — complete by the lookahead argument;
//   phase A (parallel) each domain runs W cycles of its per-cycle body —
//                      hardware: latch due frames, let each FSM instance
//                      consume one signal, stage the wire writes that
//                      change a value; software: latch due frames, spend
//                      a budget of `sw_steps_per_cycle` dispatches —
//                      touching only its own state: frames come from the
//                      inbox and outbound frames are staged cycle-stamped
//                      in an outbox. With threads > 1 the domains run on a
//                      persistent worker pool, otherwise one after another;
//   phase B (serial)   W edges in a plain loop: tick the fabric (flits move
//                      one hop, completed frames drain from the NICs into
//                      the channels), let the kernel's edge commit the
//                      staged wire writes of the domains that ran (domain
//                      order), then flush due outboxes (domain order, then
//                      software), run the memory timing layer and the cycle
//                      hook. An unchanged write would commit nothing, so
//                      committing only the changes keeps every wire stat.
//
// A frame staged at cycle c enters the interconnect in phase B, after every
// domain has run cycle c, so it reaches its receiver at a later boundary:
// never before cycle c + 1. The zero-latency bus (busLatency 0, L = 1)
// therefore delivers a frame one cycle after it was sent, in both
// directions and at every thread count.
//
// Activity, not platform size, sets the per-cycle cost. A hardware domain
// that ends a window quiet (see hwdomain.hpp) gets no phase-A job, has
// nothing committed and is not asked to flush until a frame, an external
// create or inject wakes it; the kernel still counts its activation each
// edge without calling it. The fabric lists the tiles where frames
// completed, so the per-tick drain and the boundary poll only channels
// that hold frames.
//
// Parallelism costs one pool generation per window: about a microsecond
// while the workers still spin from the last window (`pool_handshake_us`
// in BENCH_cosim.json), so phase A's speed is its jobs and their balance
// across the workers. Running the edges in one fixed serial order is the
// entire determinism story: traces, VCD, SimStats, Bus/FabricStats and
// checkpoint bytes are byte-identical at every window size and thread
// count. The serial run at W = 1 (threads = 1, window = 1) is the
// reference the grids check the others against.
//
// The whole thing is deterministic, so a CoSimulation trace is comparable
// against the abstract Executor trace (see src/xtsoc/verify) — the paper's
// "the model compiler ... preserves the defined behavior" claim, tested.
// Placement changes latency, never functional behavior.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "xtsoc/common/index_set.hpp"
#include "xtsoc/cosim/bus.hpp"
#include "xtsoc/cosim/channel.hpp"
#include "xtsoc/cosim/hwdomain.hpp"
#include "xtsoc/cosim/swdomain.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/obs/snapshot.hpp"

namespace xtsoc::hwsim {
class WorkerPool;
}

namespace xtsoc::cosim {

/// Caller-reported action-engine provenance for the report's "engines"
/// section. Whoever selected the engine (xtsocc, a bench, a test) fills
/// this in alongside `CoSimConfig::engine`/`compiled`; an empty
/// `requested` omits the section entirely, so runs that never mention
/// engines keep byte-identical reports.
struct EngineStatus {
  std::string requested;        ///< engine the user asked for ("ast", "jit")
  std::string active;           ///< engine actually executing actions
  std::string fallback_reason;  ///< why active != requested, when it does
  std::string digest;           ///< jit module content digest, if any
  bool cache_hit = false;       ///< jit module came from the on-disk cache
};

struct CoSimConfig {
  /// Worker threads running whole domains concurrently within each window
  /// (phase A). 1 runs the domains one after another on the calling
  /// thread; every thread count is byte-identical to it. See docs/PERF.md.
  int threads = 1;
  /// Execution window in cycles. 0 (default) = auto: use the full static
  /// lookahead L of the mapped interconnect. Values are clamped to [1, L]
  /// — running further ahead than L could miss cross-domain frames, so the
  /// cap is correctness, not tuning. 1 runs one-cycle windows.
  int window = 0;
  /// Software dispatches allowed per hardware clock cycle (CPU/fabric
  /// speed ratio).
  int sw_steps_per_cycle = 4;
  /// Software action work (interpreter ops) allowed per hardware clock
  /// cycle. Heavy actions therefore take many cycles in software but one in
  /// hardware — the cost asymmetry that makes repartitioning worthwhile.
  std::uint64_t sw_ops_per_cycle = 256;
  bool trace_enabled = true;
  runtime::QueuePolicy policy = runtime::QueuePolicy::kXtuml;
  runtime::ActionEngine engine = runtime::ActionEngine::kAstWalk;
  /// AOT-compiled actions (xtsoc::jit) dispatched when `engine` is kJit;
  /// non-owning — the module must outlive the co-simulation. Executors
  /// run the AST walker when it is null, so observable behaviour never
  /// depends on this being set.
  const runtime::CompiledActions* compiled = nullptr;
  /// Provenance for the report's "engines" section (see EngineStatus).
  EngineStatus engine_status;
  std::uint64_t max_ops_per_action = 10'000'000;
  /// Test hook: present this digest for the software endpoint instead of
  /// the real one, to demonstrate the connect-time mismatch detection.
  std::string forged_sw_digest;
  /// Optional observability sink, threaded through every layer: the master
  /// gets the "cosim" track (window/phase spans), the kernel
  /// "kernel", each hardware domain "executor/hwN", software "executor/sw",
  /// and the mesh "noc". Null (default) leaves every probe a dead test —
  /// simulation output is byte-identical either way.
  obs::Registry* obs = nullptr;
  /// Optional fault plan (src/xtsoc/fault), threaded into the interconnect
  /// (mesh fabric or point-to-point bus). The plan is stateful and serves
  /// exactly one CoSimulation run; campaign runs each build their own.
  /// Null (default) — or a plan whose rates are all zero — keeps the run
  /// byte-identical to a fault-free one.
  fault::Plan* fault = nullptr;
};

class CoSimulation {
public:
  explicit CoSimulation(const mapping::MappedSystem& sys,
                        CoSimConfig config = {});
  ~CoSimulation();

  // --- population (routed to the owning partition) ---------------------------
  runtime::InstanceHandle create(std::string_view class_name);
  runtime::InstanceHandle create_with(
      std::string_view class_name,
      const std::vector<std::pair<std::string, runtime::Value>>& attrs);

  /// External stimulus to any instance, regardless of partition.
  void inject(const runtime::InstanceHandle& target,
              std::string_view event_name,
              std::vector<runtime::Value> args = {}, std::uint64_t delay = 0);

  // --- execution ---------------------------------------------------------------

  /// Run until the system is quiescent or `max_cycles` elapse.
  /// Returns the number of hardware cycles executed. Quiescence is
  /// checked at window boundaries, so a run may go up to
  /// window() - 1 idle cycles past the quiescence point (never past
  /// `max_cycles`); use run_cycles() for an exact cycle count.
  std::uint64_t run(std::uint64_t max_cycles = 1'000'000);

  /// Run exactly `cycles` cycles.
  void run_cycles(std::uint64_t cycles);

  bool quiescent() const;

  // --- observability ------------------------------------------------------------
  std::uint64_t cycles() const { return cycle_; }
  /// Static interconnect lookahead L the window was derived from.
  int lookahead() const { return lookahead_; }
  /// Effective execution window W in cycles.
  int window() const { return window_; }
  /// The first (in bus mode: the only) hardware domain.
  const HwDomain& hw_domain() const { return *hw_domains_.front(); }
  /// All hardware clock domains, one per occupied mesh tile (a single
  /// entry in bus mode).
  const std::vector<std::unique_ptr<HwDomain>>& hw_domains() const {
    return hw_domains_;
  }
  /// Called at the end of every cycle — attach waveform sampling here
  /// (e.g. hwsim::VcdWriter::sample).
  void set_cycle_hook(std::function<void(std::uint64_t)> hook) {
    cycle_hook_ = std::move(hook);
  }
  /// The non-const executor accessors wake the domain they return (see
  /// hwdomain.hpp): whatever the caller does to it runs from the next cycle.
  runtime::Executor& hw_executor();
  runtime::Executor& sw_executor() { return sw_->executor(); }
  const runtime::Executor& hw_executor() const {
    return hw_domains_.front()->executor();
  }
  const runtime::Executor& sw_executor() const { return sw_->executor(); }
  runtime::Executor& executor_of(ClassId cls);
  const runtime::Executor& executor_of(ClassId cls) const;
  const mapping::MappedSystem& system() const { return *sys_; }
  /// Valid only in bus mode (`!has_fabric()`).
  const Bus& bus() const { return *bus_; }
  bool has_fabric() const { return fabric_ != nullptr; }
  /// Valid only in fabric mode (`has_fabric()`).
  const noc::Fabric& fabric() const { return *fabric_; }
  const hwsim::Simulator& hw_sim() const { return *sim_; }
  /// The memory hierarchy, or null when no `dram.tile` mark is present.
  const mem::System* mem_system() const { return mem_.get(); }

  /// Wall-clock seconds accumulated per window step, over every window run
  /// so far. The boundary/phase A/phase B split is what tells a perf
  /// investigation where the Amdahl wall currently is; bench_cosim exports
  /// it as phaseA_pct/phaseB_pct.
  struct PhaseSeconds {
    double boundary = 0;
    double phase_a = 0;
    double phase_b = 0;
  };
  PhaseSeconds phase_seconds() const { return phase_seconds_; }

  /// One structured stats report covering the whole co-simulation: run
  /// shape, kernel SimStats, interconnect (Bus or Fabric) stats, per-domain
  /// executor stats. This is THE serialization path for cosim stats — see
  /// cosim/report.hpp.
  obs::Snapshot report() const;

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the complete dynamic state of the co-simulation: kernel,
  /// interconnect (bus or fabric), every channel, every domain executor
  /// and the master's cycle counter. Call only between run calls.
  /// Structure (netlist, partition, topology) is NOT saved:
  /// restore re-elaborates a CoSimulation from the same MappedSystem —
  /// with ANY threads/window configuration — and calls load_state, after
  /// which traces, VCD, stats and report() are byte-identical to the
  /// uninterrupted run. The attached fault plan is external and
  /// serialized by the snap snapshot layer; the obs registry holds no
  /// simulation state.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  /// One window of `w` cycles: boundary inbox fill, phase A (on the pool
  /// when there is one), phase B edge loop. `w` may be smaller than window()
  /// for the tail of a run — any W' <= L is safe.
  void run_window(std::uint64_t w);
  /// Serial-spine memory step for `cycle`: hand the due coherence frames
  /// the channels hold (channel/tag order) to the hierarchy and advance it.
  void mem_tick(std::uint64_t cycle);
  /// Fabric mode: drain the NICs of the tiles where frames completed into
  /// their channels and note which channels now hold signal or coherence
  /// frames. Called after every fabric tick.
  void collect_deliveries();
  /// Window boundary: move the frames due through `end` into the inboxes
  /// of the domains whose channels hold any, waking quiet ones that get a
  /// frame.
  void fill_inboxes(std::uint64_t end);
  /// End of a run call: bring every quiet domain's clock up to the master's.
  void catch_up_quiet();

  const mapping::MappedSystem* sys_;
  CoSimConfig config_;
  std::unique_ptr<hwsim::Simulator> sim_;
  std::unique_ptr<Bus> bus_;           // bus mode only
  std::unique_ptr<noc::Fabric> fabric_;  // fabric mode only
  std::vector<std::unique_ptr<Channel>> channels_;  // owned by the master
  std::vector<std::unique_ptr<HwDomain>> hw_domains_;
  std::unique_ptr<SwDomain> sw_;
  /// Mark-driven memory hierarchy (fabric mode + `dram.tile` mark only).
  std::unique_ptr<mem::System> mem_;
  /// ClassId -> owning hardware domain, nullptr for software classes.
  std::vector<HwDomain*> hw_domain_of_;
  /// The domains given a phase-A job this window, ascending; the software
  /// domain is the last, as index hw_domains_.size(). Reused scratch.
  std::vector<std::size_t> jobs_;
  /// Fabric mode: the channels, in channels_ order, and tile -> channel
  /// index (-1 where no domain sits, e.g. the DRAM tile).
  std::vector<FabricChannel*> fabric_channels_;
  std::vector<int> channel_of_tile_;
  /// Fabric mode: channels holding signal / coherence frames, by index
  /// (ascending = the serial domain order: hardware tiles, then software).
  IndexSet signals_held_;
  IndexSet coherence_held_;
  std::function<void(std::uint64_t)> cycle_hook_;
  std::uint64_t cycle_ = 0;
  int lookahead_ = 1;
  int window_ = 1;
  /// Worker pool running phase A, the only pool of a co-simulation; at
  /// threads = 1 it spawns nothing and runs the jobs inline. Capped at the
  /// useful parallelism — domains + 1 — so extra threads never buy
  /// handshake overhead.
  std::unique_ptr<hwsim::WorkerPool> pool_;
  /// Per-window flush schedule: (cycle, domain tag) entries, one per
  /// distinct cycle a domain staged sends at, sorted by (cycle, tag). Tags
  /// 0..hw_domains-1 are the hardware domains, hw_domains is software —
  /// ascending tag order IS the serial flush order. Reused scratch.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flush_sched_;
  /// The staged wire writes one edge commits, in domain order. Reused
  /// scratch.
  std::vector<const std::vector<hwsim::WireWrite>*> edge_batches_;
  /// Coherence frames collected by mem_tick for one cycle. Reused scratch.
  std::vector<mem::System::Incoming> mem_delivered_;
  PhaseSeconds phase_seconds_;

  // Observability (null members when no registry is attached).
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;
};

}  // namespace xtsoc::cosim
