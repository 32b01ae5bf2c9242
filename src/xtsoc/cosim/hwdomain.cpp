#include "xtsoc/cosim/hwdomain.hpp"

#include "xtsoc/cosim/codec.hpp"

namespace xtsoc::cosim {

HwDomain::HwDomain(const mapping::MappedSystem& sys, hwsim::Simulator& sim,
                   Channel& channel, std::vector<ClassId> owned,
                   runtime::ExecutorConfig config)
    : sys_(&sys), sim_(&sim), channel_(&channel), owned_(std::move(owned)),
      owned_mask_(sys.domain().class_count(), 0),
      exec_(
          sys.compiled(), config,
          [this](ClassId cls) { return owns(cls); },
          [this](runtime::EventMessage m) {
            // Signal leaving this domain for a foreign executor: serialize
            // per the synthesized interface and stage it in the outbox (the
            // channel is shared; the master sends in phase B). Any
            // generate-statement delay rides along as extra transit delay.
            std::uint64_t extra = m.deliver_at - exec_.now();
            ClassId dst = m.target.cls;
            outbox_.stage(dst, encode_message(sys_->interface(), m), cycle_,
                          extra);
            exec_.recycle_args(std::move(m.args));
          }) {
  if (config.obs != nullptr) {
    obs_ = config.obs;
    obs_track_ = config.obs_track.is_valid() ? config.obs_track
                                             : obs_->track("executor");
  }
  for (ClassId cls : owned_) owned_mask_[cls.value()] = 1;
  divider_.resize(sys.domain().class_count(), 1);
  alive_wires_.resize(sys.domain().class_count(), HwSignalId::invalid());
  busy_wires_.resize(sys.domain().class_count(), HwSignalId::invalid());
  for (const auto& cm : sys.class_mappings()) {
    divider_[cm.cls.value()] =
        cm.clock_domain >= 2 ? static_cast<std::uint64_t>(cm.clock_domain) : 1;
    if (cm.target == marks::Target::kHardware && owns(cm.cls)) {
      const std::string& name = sys.domain().cls(cm.cls).name;
      alive_wires_[cm.cls.value()] = sim.wire(16, 0, "hw." + name + ".alive");
      busy_wires_[cm.cls.value()] = sim.wire(1, 0, "hw." + name + ".busy");
    }
  }
  sim.add_domain();
  // The wires start at 0.
  last_staged_.assign(2 * owned_.size(), 0);
}

void HwDomain::catch_up(std::uint64_t cycle) {
  if (cycle <= cycle_) return;
  exec_.advance_time(cycle - cycle_);
  cycle_ = cycle;
}

void HwDomain::seed_staged() {
  last_staged_.resize(2 * owned_.size());
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    const ClassId cls = owned_[i];
    last_staged_[2 * i] = sim_->read(alive_wires_[cls.value()]);
    last_staged_[2 * i + 1] = sim_->read(busy_wires_[cls.value()]);
  }
}

void HwDomain::stage(std::size_t k, std::size_t slot, HwSignalId w,
                     std::uint64_t value) {
  // This domain is the only writer of its wires, so the last value staged
  // is what the kernel holds by the time this edge commits: re-issuing it
  // would commit nothing and leave every stat unchanged.
  if (last_staged_[slot] == value) return;
  last_staged_[slot] = value;
  edge_writes_[k].push_back({w, value});
}

HwSignalId HwDomain::alive_wire(ClassId cls) const {
  return alive_wires_.at(cls.value());
}

HwSignalId HwDomain::busy_wire(ClassId cls) const {
  return busy_wires_.at(cls.value());
}

void HwDomain::step_cycle(std::size_t k) {
  edge_writes_[k].clear();
  ++cycle_;
  exec_.advance_time(1);

  // Latch frames that completed their interconnect flight this cycle. They
  // sit in the inbox: fill_inbox pulled everything due through the window's
  // end, and lookahead guarantees that is complete.
  deliver_due(inbox_, cycle_, [this](const Frame& f) {
    runtime::EventMessage m = decode_frame(sys_->interface(), f);
    m.deliver_at = exec_.now();
    exec_.deliver_remote(std::move(m));
  });

  // One signal per instance per clock: parallel FSMs, each consuming at
  // most one event — and only on its clock domain's active edges (the
  // clockDomain mark is a divider of the master clock). Queue order still
  // decides which event an instance sees. step_if dispatches the first
  // message the predicate accepts, so the predicate can record the instance
  // it is about to serve. served_ is a reused vector (few instances per
  // cycle) — no per-cycle set allocation on the hot path.
  served_.clear();
  while (true) {
    runtime::InstanceHandle chosen;
    bool dispatched = exec_.step_if(
        [this, &chosen](const runtime::EventMessage& m) {
          if (cycle_ % divider_[m.target.cls.value()] != 0) return false;
          for (const runtime::InstanceHandle& h : served_) {
            if (h == m.target) return false;
          }
          chosen = m.target;
          return true;
        });
    if (!dispatched) break;
    served_.push_back(chosen);
  }

  // Stage the observability wires' changes (visible to VCD like any RTL
  // signal) for the edge that commits this cycle.
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    const ClassId cls = owned_[i];
    std::uint64_t alive = exec_.database().live_count(cls);
    bool busy = false;
    for (const runtime::InstanceHandle& h : served_) {
      if (h.cls == cls) busy = true;
    }
    stage(k, 2 * i, alive_wires_[cls.value()], alive);
    stage(k, 2 * i + 1, busy_wires_[cls.value()], busy ? 1 : 0);
  }
}

void HwDomain::fill_inbox(std::uint64_t through_cycle) {
  channel_->receive(through_cycle, inbox_);
}

void HwDomain::run_window(std::uint64_t n) {
  // One span per window on this domain's track: phase A's parallelism is
  // visible as overlapping run_window spans across the executor lanes.
  OBS_SPAN_AT(obs_, obs_track_, "run_window", cycle_ + 1);
  if (edge_writes_.size() < n) edge_writes_.resize(n);
  for (std::uint64_t k = 0; k < n; ++k) step_cycle(k);
  // Quiet: the next cycle would dispatch nothing and stage no write (alive
  // changes only by a dispatch or an external create, which wakes us).
  bool quiet = inbox_.empty() && exec_.drained();
  for (std::size_t i = 0; quiet && i < owned_.size(); ++i) {
    quiet = last_staged_[2 * i + 1] == 0;
  }
  quiet_ = quiet;
}

template <class Io, class Self>
void HwDomain::layout(Io& io, Self& self) {
  io.state(self.exec_);
  io.u64(self.cycle_);
  io.state(self.outbox_);
  frames_layout(io, self.inbox_);
}

void HwDomain::save_state(snap::Writer& w) const { layout(w, *this); }

void HwDomain::load_state(snap::Reader& r) {
  layout(r, *this);
  quiet_ = false;  // every domain starts awake
  // The per-edge scratch is rebuilt by the next window; the last staged
  // values must match the restored kernel.
  seed_staged();
}

}  // namespace xtsoc::cosim
