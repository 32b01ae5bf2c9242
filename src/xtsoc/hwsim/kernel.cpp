#include "xtsoc/hwsim/kernel.hpp"

#include "xtsoc/snap/io.hpp"

namespace xtsoc::hwsim {

Simulator::Simulator(obs::Registry* obs) : obs_(obs) {
  if (obs_ != nullptr) {
    obs_track_ = obs_->track("kernel");
    c_delta_cycles_ = obs_->counter("kernel.delta_cycles");
    c_activations_ = obs_->counter("kernel.process_activations");
  }
}

HwSignalId Simulator::wire(int width, std::uint64_t init, std::string name) {
  if (width < 1 || width > 64) {
    throw SimError("wire width must be in [1, 64]");
  }
  WireState w;
  w.width = width;
  w.mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  w.value = init & w.mask;
  w.name = std::move(name);
  wires_.push_back(std::move(w));
  return HwSignalId(static_cast<HwSignalId::underlying_type>(wires_.size() - 1));
}

Simulator::WireState& Simulator::state(HwSignalId w) {
  if (!w.is_valid() || w.value() >= wires_.size()) {
    throw SimError("invalid wire id");
  }
  return wires_[w.value()];
}

const Simulator::WireState& Simulator::state(HwSignalId w) const {
  return const_cast<Simulator*>(this)->state(w);
}

ProcessId Simulator::combinational(std::vector<HwSignalId> sensitivity,
                                   ProcessFn fn) {
  ProcessId id(static_cast<ProcessId::underlying_type>(processes_.size()));
  processes_.push_back({std::move(fn), false, HwSignalId::invalid()});
  for (HwSignalId w : sensitivity) {
    state(w).sensitive.push_back(id);
  }
  runnable_.push_back(id);  // settle initial outputs at time 0
  return id;
}

ProcessId Simulator::on_posedge(HwSignalId clock, ProcessFn fn) {
  ProcessId id(static_cast<ProcessId::underlying_type>(processes_.size()));
  // Per-clock posedge list, built at registration time: a rising edge
  // triggers exactly this list instead of a scan over every process.
  state(clock).clocked.push_back(id);
  processes_.push_back({std::move(fn), true, clock});
  return id;
}

void Simulator::add_clock(HwSignalId w, std::uint64_t half_period) {
  if (half_period == 0) throw SimError("clock half period must be nonzero");
  state(w);
  clocks_.push_back({w, half_period, now_ + half_period});
}

std::uint64_t Simulator::read(HwSignalId w) const {
  return state(w).value;
}

void Simulator::nba_write(HwSignalId w, std::uint64_t value) {
  WireState& s = state(w);
  s.next = value & s.mask;
  if (!s.has_next) {
    s.has_next = true;
    nba_pending_.push_back(w);
  }
}

void Simulator::poke(HwSignalId w, std::uint64_t value) {
  WireState& s = state(w);
  std::uint64_t old = s.value;
  s.value = value & s.mask;
  mark_changed(w, old);
}

void Simulator::mark_changed(HwSignalId w, std::uint64_t old_value) {
  WireState& s = state(w);
  if (s.value == old_value) return;
  ++stats_.wire_commits;
  // Rising edge?
  if (s.width == 1 && old_value == 0 && s.value == 1) {
    ++s.posedges;
    for (ProcessId p : s.clocked) runnable_.push_back(p);
  }
  for (ProcessId p : s.sensitive) runnable_.push_back(p);
}

void Simulator::settle() {
  if (runnable_.empty()) return;  // quiet instant: nothing to do, no span
  OBS_SPAN(obs_, obs_track_, "settle");
  int deltas = 0;
  while (!runnable_.empty()) {
    if (++deltas > kDeltaLimit) {
      throw SimError("combinational loop did not stabilize within " +
                     std::to_string(kDeltaLimit) + " deltas");
    }
    ++stats_.delta_cycles;
    OBS_COUNT(c_delta_cycles_);

    // Run each triggered process once per delta. Dedup preserves trigger
    // order via epoch stamps — no per-delta allocation, unlike a fresh set.
    if (seen_epoch_.size() < processes_.size()) {
      seen_epoch_.resize(processes_.size(), 0);
    }
    ++epoch_;
    batch_.clear();
    for (ProcessId p : runnable_) {
      if (seen_epoch_[p.value()] == epoch_) continue;
      seen_epoch_[p.value()] = epoch_;
      batch_.push_back(p);
    }
    runnable_.clear();

    OBS_COUNT_N(c_activations_, batch_.size());
    for (ProcessId p : batch_) {
      ++stats_.process_activations;
      processes_[p.value()].fn(*this);
    }

    // Commit non-blocking writes; changed wires trigger the next delta.
    commit_buf_.clear();
    commit_buf_.swap(nba_pending_);
    for (HwSignalId w : commit_buf_) {
      WireState& s = state(w);
      s.has_next = false;
      std::uint64_t old = s.value;
      s.value = s.next;
      mark_changed(w, old);
    }
  }
}

void Simulator::advance(std::uint64_t ticks) {
  if (!initial_settle_done_) {
    settle();
    initial_settle_done_ = true;
  }
  std::uint64_t target = now_ + ticks;
  while (true) {
    // Next clock toggle at or before target?
    std::uint64_t next_time = target;
    bool has_toggle = false;
    for (const ClockGen& c : clocks_) {
      if (c.next_toggle <= target && (!has_toggle || c.next_toggle < next_time)) {
        next_time = c.next_toggle;
        has_toggle = true;
      }
    }
    if (!has_toggle) {
      now_ = target;
      return;
    }
    now_ = next_time;
    for (ClockGen& c : clocks_) {
      if (c.next_toggle == now_) {
        poke(c.w, read(c.w) ^ 1u);
        c.next_toggle = now_ + c.half_period;
      }
    }
    settle();
  }
}

void Simulator::run_cycles(HwSignalId clock, std::uint64_t cycles) {
  std::uint64_t start = posedge_count(clock);
  // Find the generator driving this clock to step efficiently.
  std::uint64_t half = 1;
  for (const ClockGen& c : clocks_) {
    if (c.w == clock) half = c.half_period;
  }
  while (posedge_count(clock) < start + cycles) {
    advance(half);
  }
}

void Simulator::run_cycles(HwSignalId clock, std::uint64_t cycles,
                           const std::function<void(std::uint64_t)>& before_edge,
                           const std::function<void(std::uint64_t)>& after_edge) {
  std::uint64_t half = 1;
  for (const ClockGen& c : clocks_) {
    if (c.w == clock) half = c.half_period;
  }
  // One kernel entry for the whole run: the generator lookup above happens
  // once, not once per cycle, and the edge-by-edge toggle/settle sequence is
  // exactly `cycles` consecutive run_cycles(clock, 1) calls.
  for (std::uint64_t k = 0; k < cycles; ++k) {
    if (before_edge) before_edge(k);
    const std::uint64_t start = posedge_count(clock);
    while (posedge_count(clock) < start + 1) advance(half);
    if (after_edge) after_edge(k);
  }
}

std::uint64_t Simulator::posedge_count(HwSignalId clock) const {
  return state(clock).posedges;
}

const std::string& Simulator::name_of(HwSignalId w) const {
  return state(w).name;
}

int Simulator::width_of(HwSignalId w) const { return state(w).width; }

void Simulator::save_state(snap::Writer& w) const {
  if (!runnable_.empty() || !nba_pending_.empty()) {
    throw snap::SnapError(
        "kernel checkpoint requires a quiet point: processes are runnable "
        "or non-blocking writes are pending");
  }
  w.u64(wires_.size());
  for (const WireState& ws : wires_) {
    w.u8(static_cast<std::uint8_t>(ws.width));  // shape check on load
    w.u64(ws.value);
    w.u64(ws.posedges);
  }
  w.u64(clocks_.size());
  for (const ClockGen& c : clocks_) {
    w.u64(c.half_period);  // shape check on load
    w.u64(c.next_toggle);
  }
  w.u64(now_);
  w.boolean(initial_settle_done_);
  w.u64(stats_.delta_cycles);
  w.u64(stats_.process_activations);
  w.u64(stats_.wire_commits);
}

void Simulator::load_state(snap::Reader& r) {
  const std::uint64_t nwires = r.u64();
  if (nwires != wires_.size()) {
    throw snap::SnapError("kernel snapshot has " + std::to_string(nwires) +
                          " wires, netlist has " +
                          std::to_string(wires_.size()));
  }
  for (WireState& ws : wires_) {
    const int width = r.u8();
    if (width != ws.width) {
      throw snap::SnapError("kernel snapshot wire width mismatch on '" +
                            ws.name + "'");
    }
    ws.value = r.u64();
    ws.next = 0;
    ws.has_next = false;
    ws.posedges = r.u64();
  }
  const std::uint64_t nclocks = r.u64();
  if (nclocks != clocks_.size()) {
    throw snap::SnapError("kernel snapshot clock count mismatch");
  }
  for (ClockGen& c : clocks_) {
    const std::uint64_t half = r.u64();
    if (half != c.half_period) {
      throw snap::SnapError("kernel snapshot clock period mismatch");
    }
    c.next_toggle = r.u64();
  }
  now_ = r.u64();
  initial_settle_done_ = r.boolean();
  stats_.delta_cycles = r.u64();
  stats_.process_activations = r.u64();
  stats_.wire_commits = r.u64();
  // A freshly elaborated netlist queues every combinational process for the
  // time-0 settle; the snapshot already carries the settled wire values, so
  // that pending work must be discarded, not replayed.
  runnable_.clear();
  nba_pending_.clear();
}

}  // namespace xtsoc::hwsim
