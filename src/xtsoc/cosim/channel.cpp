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

void Outbox::save_state(snap::Writer& w) const {
  w.u64(staged_.size());
  for (const Staged& s : staged_) {
    w.u32(s.dst.value());
    save_frame(w, s.frame);
    w.u64(s.cycle);
    w.u64(s.extra_delay);
  }
  w.u64(sent_);
}

void Outbox::load_state(snap::Reader& r) {
  staged_.clear();
  // An entry is a destination, a frame and two u64s.
  for (std::size_t n = r.count(4 + kFrameBytes + 8 + 8); n > 0; --n) {
    Staged s;
    s.dst = ClassId(r.u32());
    s.frame = load_frame(r);
    s.cycle = r.u64();
    s.extra_delay = r.u64();
    staged_.push_back(std::move(s));
  }
  const std::uint64_t sent = r.u64();
  if (sent > staged_.size()) {
    throw snap::SnapError("outbox snapshot marks " + std::to_string(sent) +
                          " of " + std::to_string(staged_.size()) +
                          " frames sent");
  }
  sent_ = static_cast<std::size_t>(sent);
}

}  // namespace xtsoc::cosim
