#include "xtsoc/cosim/swdomain.hpp"

#include "xtsoc/cosim/codec.hpp"

namespace xtsoc::cosim {

SwDomain::SwDomain(const mapping::MappedSystem& sys, Channel& channel,
                   runtime::ExecutorConfig config)
    : sys_(&sys), channel_(&channel),
      exec_(
          sys.compiled(), config,
          [&sys](ClassId cls) { return !sys.partition().is_hardware(cls); },
          [this](runtime::EventMessage m) {
            std::uint64_t extra = m.deliver_at - exec_.now();
            ClassId dst = m.target.cls;
            // The channel is shared across domains; inside a window it
            // must not be touched. Stage cycle-stamped; the master sends in
            // phase B, in the serial order.
            outbox_.stage(dst, encode_message(sys_->interface(), m), cycle_,
                          extra);
            exec_.recycle_args(std::move(m.args));
          }) {
}

void SwDomain::latch_cycle(std::uint64_t cycle) {
  cycle_ = cycle;
  exec_.advance_time(1);
  deliver_due(inbox_, cycle, [this](const Frame& f) {
    runtime::EventMessage m = decode_frame(sys_->interface(), f);
    m.deliver_at = exec_.now();
    exec_.deliver_remote(std::move(m));
  });
}

void SwDomain::run_cycle(std::uint64_t cycle, int steps, std::uint64_t ops) {
  latch_cycle(cycle);
  // At most `steps` dispatches AND at most `ops` action ops; a dispatch
  // whose action overruns the op budget still completes, it just exhausts
  // the cycle. latch_cycle released every due timer, so an executor with
  // nothing ready steps to false without touching its state.
  const std::uint64_t ops_start = exec_.ops_executed();
  for (int i = 0; i < steps; ++i) {
    if (exec_.ops_executed() - ops_start >= ops) break;
    if (!exec_.step()) break;
  }
}

void SwDomain::fill_inbox(std::uint64_t through_cycle) {
  channel_->receive(through_cycle, inbox_);
}

template <class Io, class Self>
void SwDomain::layout(Io& io, Self& self) {
  io.state(self.exec_);
  io.u64(self.cycle_);
  io.state(self.outbox_);
  frames_layout(io, self.inbox_);
}

void SwDomain::save_state(snap::Writer& w) const { layout(w, *this); }

void SwDomain::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::cosim
