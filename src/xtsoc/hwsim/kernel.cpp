#include "xtsoc/hwsim/kernel.hpp"

#include "xtsoc/snap/io.hpp"

namespace xtsoc::hwsim {

namespace {
/// The master clock toggles every tick.
constexpr std::uint64_t kHalfPeriod = 1;
}  // namespace

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

HwSignalId Simulator::clock() {
  if (clock_.is_valid()) throw SimError("the master clock already exists");
  clock_ = wire(1, 0, "clk");
  return clock_;
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

std::uint64_t Simulator::read(HwSignalId w) const { return state(w).value; }

const std::string& Simulator::name_of(HwSignalId w) const {
  return state(w).name;
}

int Simulator::width_of(HwSignalId w) const { return state(w).width; }

std::uint64_t Simulator::posedge_count(HwSignalId w) const {
  return state(w).posedges;
}

void Simulator::commit(WireState& s, std::uint64_t value) {
  value &= s.mask;
  if (value == s.value) return;
  ++stats_.wire_commits;
  if (s.width == 1 && value == 1) ++s.posedges;
  s.value = value;
}

void Simulator::edge(std::span<const std::vector<WireWrite>* const> staged) {
  if (!clock_.is_valid()) throw SimError("edge() needs a master clock");
  OBS_SPAN(obs_, obs_track_, "settle");
  WireState& clk = wires_[clock_.value()];
  if (clk.value != 0) {
    now_ += kHalfPeriod;
    commit(clk, 0);
  }
  now_ += kHalfPeriod;
  commit(clk, 1);
  if (domains_ > 0) {
    ++stats_.delta_cycles;
    stats_.process_activations += domains_;
    OBS_COUNT(c_delta_cycles_);
    OBS_COUNT_N(c_activations_, domains_);
  }
  for (const std::vector<WireWrite>* batch : staged) {
    for (const WireWrite& ww : *batch) commit(state(ww.w), ww.value);
  }
}

void Simulator::save_state(snap::Writer& w) const {
  w.u64(wires_.size());
  for (const WireState& ws : wires_) {
    w.u8(static_cast<std::uint8_t>(ws.width));  // shape check on load
    w.u64(ws.value);
    w.u64(ws.posedges);
  }
  w.u64(clock_.is_valid() ? 1 : 0);
  if (clock_.is_valid()) {
    w.u64(kHalfPeriod);  // shape check on load
    w.u64(now_ + kHalfPeriod);
  }
  w.u64(now_);
  w.boolean(now_ > 0);
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
    ws.posedges = r.u64();
  }
  const bool clocked = clock_.is_valid();
  if (r.u64() != (clocked ? 1u : 0u)) {
    throw snap::SnapError("kernel snapshot clock count mismatch");
  }
  std::uint64_t next_toggle = 0;
  if (clocked) {
    if (r.u64() != kHalfPeriod) {
      throw snap::SnapError("kernel snapshot clock period mismatch");
    }
    next_toggle = r.u64();
  }
  now_ = r.u64();
  const bool edged = r.boolean();
  // Between edges the clock's next toggle is always one half period away,
  // and time has moved exactly when an edge ran. Anything else could not
  // be saved again byte for byte.
  if (clocked && (next_toggle != now_ + kHalfPeriod || edged != (now_ > 0))) {
    throw snap::SnapError("kernel snapshot clock schedule is inconsistent");
  }
  stats_.delta_cycles = r.u64();
  stats_.process_activations = r.u64();
  stats_.wire_commits = r.u64();
}

}  // namespace xtsoc::hwsim
