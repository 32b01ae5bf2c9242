#include "xtsoc/cosim/channel.hpp"

#include <string>

namespace xtsoc::cosim {

void Outbox::pending_send_cycles(
    std::uint32_t tag,
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) const {
  // Frames are staged in cycle order, so distinct cycles appear as runs —
  // comparing against the entry just appended dedups them.
  for (std::size_t i = sent_; i < staged_.size(); ++i) {
    if (out.empty() || out.back().first != staged_[i].cycle ||
        out.back().second != tag) {
      out.push_back({staged_[i].cycle, tag});
    }
  }
}

template <class Io, class Self>
void Outbox::layout(Io& io, Self& self) {
  // An entry is a destination, a frame and two u64s.
  io.seq(self.staged_, 4 + kFrameBytes + 8 + 8, [&](auto& s) {
    io.u32(s.dst);
    frame_layout(io, s.frame);
    io.u64(s.cycle);
    io.u64(s.extra_delay);
  });
  io.u64(self.sent_);
  if constexpr (Io::kLoading) {
    if (self.sent_ > self.staged_.size()) {
      throw snap::SnapError("outbox snapshot marks " +
                            std::to_string(self.sent_) + " of " +
                            std::to_string(self.staged_.size()) +
                            " frames sent");
    }
  }
}

void Outbox::save_state(snap::Writer& w) const { layout(w, *this); }

void Outbox::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::cosim
