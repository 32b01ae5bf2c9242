// hwsim: a discrete-event, delta-cycle hardware simulator.
//
// This is the substrate that stands in for the FPGA/ASIC the paper's VHDL
// output would target. Semantics follow event-driven RTL simulation:
//
//   * a Wire carries an unsigned value of a declared bit width;
//   * combinational processes re-evaluate when a wire in their sensitivity
//     list changes; their writes are non-blocking (visible next delta);
//   * clocked processes run once per rising edge of their clock wire;
//   * within one simulation instant, deltas repeat until no wire changes
//     (with an oscillation guard for unstable combinational loops);
//   * simulation time advances in integer ticks; clocks are scheduled
//     toggles.
//
// The xtUML hardware mapping (src/xtsoc/cosim/hwdomain.*) lowers each
// hardware-marked class onto a clocked process of this kernel: one queued
// signal consumed per clock edge per instance — which is what makes
// hardware latency observable and distinct from software in experiments.
//
// The kernel itself is single-threaded; parallelism lives one level up.
//
// Window replay: the windowed co-simulation runs each domain's per-cycle
// body off the kernel, on a worker pool when threads > 1 (a window of one
// cycle when the lookahead allows no more), and stages the wire writes
// that change a value; the kernel then replays the window serially through
// run_cycles with before/after-edge callbacks. A write that leaves a wire
// unchanged commits nothing and triggers no process, so skipping it is
// unobservable: the replay is byte-identical to lockstep.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "xtsoc/common/ids.hpp"
#include "xtsoc/obs/registry.hpp"

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::hwsim {

/// Thrown on kernel-level faults: unstable combinational loop, bad wire id.
class SimError : public std::runtime_error {
public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

struct SimStats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_activations = 0;
  std::uint64_t wire_commits = 0;
};

class Simulator {
public:
  using ProcessFn = std::function<void(Simulator&)>;

  /// Deltas allowed within one instant before declaring oscillation.
  static constexpr int kDeltaLimit = 1000;

  /// `obs` is an optional observability sink: settle spans land on the
  /// "kernel" track, delta/activation counters on "kernel.*". It never
  /// perturbs simulation behaviour.
  explicit Simulator(obs::Registry* obs = nullptr);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- netlist construction --------------------------------------------------

  /// Create a wire of `width` bits (1..64) holding `init`.
  HwSignalId wire(int width, std::uint64_t init = 0, std::string name = {});

  /// Combinational process: runs whenever any wire in `sensitivity` changes
  /// (and once at time 0 to settle initial values).
  ProcessId combinational(std::vector<HwSignalId> sensitivity, ProcessFn fn);

  /// Clocked process: runs on each rising edge of `clock`.
  ProcessId on_posedge(HwSignalId clock, ProcessFn fn);

  /// Auto-toggle `w` every `half_period` ticks (a clock generator).
  void add_clock(HwSignalId w, std::uint64_t half_period);

  // --- wire access -------------------------------------------------------------

  std::uint64_t read(HwSignalId w) const;

  /// Non-blocking write: takes effect at the end of the current delta.
  /// This is the only write processes may use.
  void nba_write(HwSignalId w, std::uint64_t value);

  /// Immediate testbench write (outside process evaluation). Triggers
  /// sensitive processes on the next settle().
  void poke(HwSignalId w, std::uint64_t value);

  const std::string& name_of(HwSignalId w) const;
  int width_of(HwSignalId w) const;

  // --- execution ---------------------------------------------------------------

  /// Run delta cycles at the current instant until no wire changes.
  void settle();

  /// Advance time by `ticks`, firing scheduled clock toggles and settling
  /// after each instant with activity.
  void advance(std::uint64_t ticks);

  /// Advance until `clock` has produced `cycles` rising edges.
  void run_cycles(HwSignalId clock, std::uint64_t cycles);

  /// Run-N-cycles entry point with per-edge callbacks: `before_edge(k)` runs
  /// just before the k-th rising toggle, `after_edge(k)` right after its
  /// settle (k is 0-based). The toggle/settle sequence — and therefore every
  /// stat, trace and waveform byte — is identical to calling
  /// run_cycles(clock, 1) `cycles` times with the callback bodies in
  /// between; this form enters the kernel once per window instead of once
  /// per cycle. Either callback may be null.
  void run_cycles(HwSignalId clock, std::uint64_t cycles,
                  const std::function<void(std::uint64_t)>& before_edge,
                  const std::function<void(std::uint64_t)>& after_edge);

  std::uint64_t now() const { return now_; }
  std::uint64_t posedge_count(HwSignalId clock) const;
  const SimStats& stats() const { return stats_; }
  std::size_t wire_count() const { return wires_.size(); }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the dynamic kernel state: wire values/latches/edge counters,
  /// clock schedules, time, settle flag, stats. The NETLIST (wires, widths,
  /// processes, sensitivities) is not serialized — a restore re-elaborates
  /// the same netlist from the model and load_state refuses a snapshot
  /// whose shape (wire count/widths, clock count) disagrees. Only legal at
  /// a quiet point: no queued runnables, no pending non-blocking writes
  /// (between run_cycles calls); throws SnapError otherwise.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  struct WireState {
    std::uint64_t value = 0;
    std::uint64_t next = 0;
    bool has_next = false;
    int width = 1;
    std::uint64_t mask = 1;
    std::string name;
    std::vector<ProcessId> sensitive;  ///< combinational listeners
    std::vector<ProcessId> clocked;    ///< posedge listeners (this is a clock)
    std::uint64_t posedges = 0;        ///< rising-edge counter
  };

  struct Process {
    ProcessFn fn;
    bool clocked = false;
    HwSignalId clock;
  };

  struct ClockGen {
    HwSignalId w;
    std::uint64_t half_period;
    std::uint64_t next_toggle;
  };

  WireState& state(HwSignalId w);
  const WireState& state(HwSignalId w) const;
  void mark_changed(HwSignalId w, std::uint64_t old_value);

  std::vector<WireState> wires_;
  std::vector<Process> processes_;
  std::vector<ClockGen> clocks_;
  std::vector<ProcessId> runnable_;
  std::vector<HwSignalId> nba_pending_;
  std::uint64_t now_ = 0;
  bool initial_settle_done_ = false;
  SimStats stats_;

  // Observability (null members when no registry is attached).
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;
  obs::Counter* c_delta_cycles_ = nullptr;
  obs::Counter* c_activations_ = nullptr;

  // Reused per-delta scratch (no steady-state allocation).
  std::vector<ProcessId> batch_;           ///< deduplicated runnable batch
  std::vector<std::uint64_t> seen_epoch_;  ///< runnable dedup stamps
  std::uint64_t epoch_ = 0;
  std::vector<HwSignalId> commit_buf_;     ///< pending writes being committed
};

}  // namespace xtsoc::hwsim
