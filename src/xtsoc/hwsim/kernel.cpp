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
  }
  for (const std::vector<WireWrite>* batch : staged) {
    for (const WireWrite& ww : *batch) commit(state(ww.w), ww.value);
  }
}

template <class Io, class Self>
void Simulator::layout(Io& io, Self& self) {
  const std::uint64_t nwires = self.wires_.size();
  io.expect(nwires, [&](std::uint64_t found) {
    return "kernel snapshot has " + std::to_string(found) +
           " wires, netlist has " + std::to_string(nwires);
  });
  for (auto& ws : self.wires_) {
    io.expect(static_cast<std::uint8_t>(ws.width), [&](std::uint8_t) {
      return "kernel snapshot wire width mismatch on '" + ws.name + "'";
    });
    io.u64(ws.value);
    io.u64(ws.posedges);
  }
  const bool clocked = self.clock_.is_valid();
  io.expect(std::uint64_t{clocked ? 1u : 0u},
            "kernel snapshot clock count mismatch");
  // Between edges the clock's next toggle is always one half period away,
  // and time has moved exactly when an edge ran. The writer states both;
  // the reader refuses a file that says otherwise, which could not be
  // saved again byte for byte.
  std::uint64_t next_toggle = self.now_ + kHalfPeriod;
  if (clocked) {
    io.expect(std::uint64_t{kHalfPeriod},
              "kernel snapshot clock period mismatch");
    io.u64(next_toggle);
  }
  io.u64(self.now_);
  bool edged = self.now_ > 0;
  io.boolean(edged);
  if constexpr (Io::kLoading) {
    if (clocked && (next_toggle != self.now_ + kHalfPeriod ||
                    edged != (self.now_ > 0))) {
      throw snap::SnapError("kernel snapshot clock schedule is inconsistent");
    }
  }
  io.u64(self.stats_.delta_cycles);
  io.u64(self.stats_.process_activations);
  io.u64(self.stats_.wire_commits);
}

void Simulator::save_state(snap::Writer& w) const { layout(w, *this); }

void Simulator::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::hwsim
