// HwDomain: the executable hardware mapping of ONE clock domain.
//
// Every hardware-marked class becomes, conceptually, a bank of FSMs; here
// the bank is realized as a domain-scoped Executor stepped once per
// master-clock cycle. With the legacy bus there is exactly one
// HwDomain owning every hardware class; with the mesh fabric there is one
// per occupied tile, each behind its own NIC. The timing contract of the
// mapping:
//
//   * one signal consumed per instance per clock cycle (FSMs are parallel
//     in space, serial in their own time),
//   * the `clockDomain` mark is a clock divider: a class in domain d (d>=2)
//     consumes signals only every d-th master-clock cycle (0/1 = full
//     rate) — slow peripherals cost cycles, exactly as on a real SoC,
//   * `delay N` = N master-clock cycles,
//   * signals to classes owned by any other executor leave through this
//     domain's Channel with the synthesized wire format.
//
// CoSimulation runs the domain a window at a time (see cosim.hpp):
// run_window(W) runs W consecutive cycles, possibly on a worker thread,
// touching only domain-local state. Frames come from an inbox the master
// filled at the window boundary. Outbound frames are STAGED, not sent: each
// cycle encodes them cycle-stamped into a local outbox, and the master
// flushes every domain's outbox in phase B — serially, in domain order, at
// the edge of the cycle that staged them. The interconnect is shared state,
// so this is what lets domains evaluate concurrently and still inject
// frames in the exact order a serial run does.
//
// The observability wires are staged too. Each cycle stages, for its
// edge, only the wire writes that change a value: this domain is the sole
// writer of its wires, and an unchanged write commits nothing. The master
// commits each edge's writes in phase B, on the hwsim kernel, which never
// calls the domain.
//
// A domain that ends a window quiet — empty inbox, drained executor (no
// queue, no timer), every busy wire already staged 0 — would spend the
// next window staging nothing and sending nothing: each of its cycles only
// advances its clock. So the master gives it no phase-A job and commits
// nothing for it until something wakes it; the kernel still counts its
// activation each edge. Its cycle counter and executor time lag meanwhile;
// catch_up() restores them exactly (advance_time over a drained executor
// releases nothing), and the master calls it before anything can observe
// the lag: when a frame lands in the inbox, before an external create or
// inject, and at the end of every run call.
//
// This is the executable twin of the VHDL text emitted by
// codegen::generate_vhdl — same partition, same interface, same queueing.
#pragma once

#include <utility>
#include <vector>

#include "xtsoc/cosim/channel.hpp"
#include "xtsoc/hwsim/kernel.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::cosim {

class HwDomain {
public:
  /// Registers this domain and its observability wires with `sim`. `sim`
  /// and `channel` must outlive this object. `owned` lists the hardware
  /// classes this domain executes: the full hardware partition in bus
  /// mode, one tile's worth in fabric mode.
  HwDomain(const mapping::MappedSystem& sys, hwsim::Simulator& sim,
           Channel& channel, std::vector<ClassId> owned,
           runtime::ExecutorConfig config);

  runtime::Executor& executor() { return exec_; }
  const runtime::Executor& executor() const { return exec_; }

  const std::vector<ClassId>& owned() const { return owned_; }
  bool owns(ClassId cls) const {
    return cls.value() < owned_mask_.size() && owned_mask_[cls.value()] != 0;
  }

  /// Rising edges seen so far (= hardware cycles executed).
  std::uint64_t cycles() const { return cycle_; }
  /// Signals dispatched in hardware.
  std::uint64_t dispatches() const { return exec_.dispatch_count(); }

  /// The wire writes staged for edge `k` of the last run_window() call:
  /// only those that change a value, in staging order.
  const std::vector<hwsim::WireWrite>& edge_writes(std::size_t k) const {
    return edge_writes_[k];
  }

  bool drained() const {
    return exec_.drained() && outbox_.empty() && inbox_.empty();
  }

  // --- window execution (CoSimulation only) ----------------------------------

  /// True when the last window ended quiet (see above): the master gives
  /// the domain no phase-A job until wake() clears it.
  bool quiet() const { return quiet_; }

  /// Bring a lagging quiet domain's cycle and executor time up to the
  /// master's `cycle` (serial; a no-op for a domain that is not behind).
  void catch_up(std::uint64_t cycle);

  /// Clear the quiet flag and catch up to `cycle`: the domain runs again
  /// from the next window on. Serial.
  void wake(std::uint64_t cycle) {
    if (!quiet_) return;
    quiet_ = false;
    catch_up(cycle);
  }

  bool inbox_empty() const { return inbox_.empty(); }

  /// Window boundary, serial: move every channel frame deliverable at or
  /// before `through_cycle` (the window's last cycle) into the inbox.
  /// Lookahead guarantees nothing sent inside the window can become due
  /// inside it, so the inbox is complete for the whole window.
  void fill_inbox(std::uint64_t through_cycle);

  /// Run `n` consecutive cycles of this domain's per-cycle body against the
  /// inbox (worker thread; touches only domain-local state). Wire writes
  /// are staged per edge (edge_writes(0..n-1)) for phase B to commit;
  /// outbound frames are staged cycle-stamped in the outbox. Ends by
  /// setting the quiet flag.
  void run_window(std::uint64_t n);

  /// Send the outbox prefix staged at cycles <= `cycle` (monotone calls,
  /// in domain order). Clears the outbox when the last staged frame has
  /// been sent.
  void flush_outbox_through(std::uint64_t cycle) {
    outbox_.flush_through(*channel_, cycle);
  }

  /// Append one (cycle, `tag`) entry per distinct cycle that still has
  /// staged, unsent outbox frames. CoSimulation merges these into the
  /// window's flush schedule so phase B only asks a domain to flush at
  /// cycles where it actually has something to send.
  void pending_send_cycles(
      std::uint32_t tag,
      std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) const {
    outbox_.pending_send_cycles(tag, out);
  }

  /// Observability wires created in the hwsim netlist, one pair per owned
  /// hardware class: `hw.<class>.alive` (live instance count, 16 bits) and
  /// `hw.<class>.busy` (1 while the class dispatched this cycle). They make
  /// fabric activity visible to the VCD writer like any RTL signal.
  HwSignalId alive_wire(ClassId cls) const;
  HwSignalId busy_wire(ClassId cls) const;

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the executor, cycle counter and staged frames. Checkpoints
  /// are taken between CoSimulation::run calls, where the staged wire
  /// writes have all been committed; load_state resets them and wakes the
  /// domain.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  /// The per-cycle body: advance, latch due inbox frames, dispatch one
  /// signal per instance, stage the observability wires' changes as edge
  /// `k`'s writes.
  void step_cycle(std::size_t k);
  /// Stage `value` for wire `w` on edge `k` unless it equals the last
  /// value staged for that wire (`slot` into last_staged_).
  void stage(std::size_t k, std::size_t slot, HwSignalId w,
             std::uint64_t value);
  /// Set last_staged_ to the kernel's current wire values. Serial only:
  /// after load_state (the master restores the kernel before the domains).
  void seed_staged();

  const mapping::MappedSystem* sys_;
  const hwsim::Simulator* sim_;
  Channel* channel_;
  std::vector<ClassId> owned_;
  std::vector<char> owned_mask_;  // indexed by ClassId
  runtime::Executor exec_;
  std::uint64_t cycle_ = 0;
  /// Per-class clock divider from the clockDomain mark (index: ClassId).
  std::vector<std::uint64_t> divider_;
  std::vector<HwSignalId> alive_wires_;  // index: ClassId; invalid if foreign
  std::vector<HwSignalId> busy_wires_;
  Outbox outbox_;  ///< frames staged during the current window
  /// Instances already served this cycle (reused; cleared each edge).
  std::vector<runtime::InstanceHandle> served_;

  // Observability (null members when no registry is attached; the track is
  // shared with this domain's executor, e.g. "executor/hw0").
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;

  /// Wire writes staged per edge; [k] holds edge k's writes.
  std::vector<std::vector<hwsim::WireWrite>> edge_writes_;
  /// Last value staged per observability wire: [2i] alive, [2i+1] busy of
  /// owned_[i]. Equal to the kernel's value once earlier edges committed.
  std::vector<std::uint64_t> last_staged_;

  std::vector<Frame> inbox_;  ///< due frames for the current window, in order
  /// Set by run_window (worker thread), read and cleared by the master.
  bool quiet_ = false;
};

}  // namespace xtsoc::cosim
