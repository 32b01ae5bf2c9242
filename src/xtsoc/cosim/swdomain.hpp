// SwDomain: the executable software mapping.
//
// The software partition is the paper's "fully synchronous, single
// tasking" target (§2): one executor stepped directly, each step
// dispatching one signal (the generated C's main loop does exactly this:
// pop queue, dispatch, repeat). The co-simulation master grants the
// software side a budget of dispatches and action ops per hardware clock
// cycle — the speed ratio between the processor and the fabric — which is
// the knob behind the partitioning experiments. Frames travel whatever
// Channel the master picked: the legacy bus, or the software tile's NIC on
// the mesh.
//
// Like HwDomain, the domain runs a window at a time, possibly on a worker
// thread: each run_cycle latches due frames from an inbox the master
// filled at the window boundary, and outbound frames are staged
// cycle-stamped in an outbox for the master to flush in phase B. See
// cosim.hpp for the window scheme.
#pragma once

#include <utility>
#include <vector>

#include "xtsoc/cosim/channel.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::cosim {

class SwDomain {
public:
  SwDomain(const mapping::MappedSystem& sys, Channel& channel,
           runtime::ExecutorConfig config);

  runtime::Executor& executor() { return exec_; }
  const runtime::Executor& executor() const { return exec_; }

  bool drained() const {
    return exec_.drained() && outbox_.empty() && inbox_.empty();
  }

  /// One software cycle of phase A: advance time, latch due inbox frames,
  /// then dispatch against the per-cycle budget — at most `steps`
  /// dispatches and `ops` action ops, run-to-completion never violated.
  void run_cycle(std::uint64_t cycle, int steps, std::uint64_t ops);

  // --- window execution (CoSimulation only) ----------------------------------

  /// Window boundary, serial: pull every channel frame deliverable at or
  /// before `through_cycle` into the inbox (complete for the window by the
  /// lookahead argument — see cosim.hpp).
  void fill_inbox(std::uint64_t through_cycle);

  /// Send the outbox prefix staged at cycles <= `cycle` (monotone, after
  /// the hardware domains' flushes).
  void flush_outbox_through(std::uint64_t cycle) {
    outbox_.flush_through(*channel_, cycle);
  }

  /// Append one (cycle, `tag`) entry per distinct cycle with staged,
  /// unsent outbox frames (see HwDomain::pending_send_cycles).
  void pending_send_cycles(
      std::uint32_t tag,
      std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) const {
    outbox_.pending_send_cycles(tag, out);
  }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the executor, cycle counter and staged frames (see
  /// HwDomain::save_state for the quiet-point contract).
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  /// Per-cycle prologue: advance time, deliver the inbox's due frames.
  void latch_cycle(std::uint64_t cycle);

  const mapping::MappedSystem* sys_;
  Channel* channel_;
  runtime::Executor exec_;
  std::uint64_t cycle_ = 0;

  std::vector<Frame> inbox_;
  Outbox outbox_;
};

}  // namespace xtsoc::cosim
