#include "xtsoc/cosim/bus.hpp"

#include "xtsoc/fault/fault.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::cosim {

void Bus::connect(const std::string& hw_digest, const std::string& sw_digest) {
  if (hw_digest != sw_digest) {
    throw InterfaceMismatch(
        "interface digest mismatch: hardware side built against " + hw_digest +
        ", software side against " + sw_digest +
        " — the two halves were not generated from the same mapping");
  }
  connected_ = true;
}

void Bus::check_connected() const {
  if (!connected_) {
    throw InterfaceMismatch("bus used before connect() handshake");
  }
}

std::optional<std::uint64_t> Bus::transfer_penalty(std::uint32_t endpoint,
                                                   std::uint64_t cycle) {
  if (fault_ == nullptr) return 0;
  // Each failed attempt re-arbitrates the bus: one more latency, plus a
  // widening backoff. The retry budget bounds the loop — a hostile plan
  // (busError = 1.0) produces counted drops, never an infinite push.
  std::uint64_t penalty = 0;
  const int budget = fault_->spec().retry_budget;
  for (int attempt = 0; fault_->bus_error(endpoint, cycle); ++attempt) {
    ++fstats_.errors;
    if (attempt >= budget) return std::nullopt;
    ++fstats_.retries;
    penalty += static_cast<std::uint64_t>(latency_) + (1ULL << attempt);
  }
  return penalty;
}

void Bus::push_to_hw(Frame f, std::uint64_t current_cycle,
                     std::uint64_t extra_delay) {
  check_connected();
  const auto penalty = transfer_penalty(0, current_cycle);
  if (!penalty) {
    ++fstats_.frames_dropped;
    return;
  }
  f.due_cycle = current_cycle + static_cast<std::uint64_t>(latency_) +
                extra_delay + *penalty;
  stats_.frames_to_hw++;
  stats_.bytes_to_hw += f.payload.size();
  to_hw_.push_back(std::move(f));
}

void Bus::push_to_sw(Frame f, std::uint64_t current_cycle,
                     std::uint64_t extra_delay) {
  check_connected();
  const auto penalty = transfer_penalty(1, current_cycle);
  if (!penalty) {
    ++fstats_.frames_dropped;
    return;
  }
  f.due_cycle = current_cycle + static_cast<std::uint64_t>(latency_) +
                extra_delay + *penalty;
  stats_.frames_to_sw++;
  stats_.bytes_to_sw += f.payload.size();
  to_sw_.push_back(std::move(f));
}

template <class Io, class F>
void frame_layout(Io& io, F& f) {
  io.u32(f.opcode);
  io.blob(f.payload);
  io.u64(f.due_cycle);
}

template void frame_layout(snap::Writer&, const Frame&);
template void frame_layout(snap::Reader&, Frame&);

template <class Io, class Q>
void frames_layout(Io& io, Q& q) {
  io.seq(q, kFrameBytes, [&](auto& f) { frame_layout(io, f); });
}

template void frames_layout(snap::Writer&, const std::vector<Frame>&);
template void frames_layout(snap::Reader&, std::vector<Frame>&);

template <class Io, class Self>
void Bus::layout(Io& io, Self& self) {
  io.boolean(self.connected_);
  frames_layout(io, self.to_hw_);
  frames_layout(io, self.to_sw_);
  io.u64(self.stats_.frames_to_hw);
  io.u64(self.stats_.frames_to_sw);
  io.u64(self.stats_.bytes_to_hw);
  io.u64(self.stats_.bytes_to_sw);
  io.u64(self.fstats_.errors);
  io.u64(self.fstats_.retries);
  io.u64(self.fstats_.frames_dropped);
}

void Bus::save_state(snap::Writer& w) const { layout(w, *this); }

void Bus::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::cosim
