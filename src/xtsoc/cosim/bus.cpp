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

std::vector<Frame> Bus::pop_due_to_hw(std::uint64_t cycle) {
  return take_due(to_hw_, cycle);
}

std::vector<Frame> Bus::pop_due_to_sw(std::uint64_t cycle) {
  return take_due(to_sw_, cycle);
}

void save_frame(snap::Writer& w, const Frame& f) {
  w.u32(f.opcode);
  w.u64(f.payload.size());
  w.bytes(f.payload.data(), f.payload.size());
  w.u64(f.due_cycle);
}

Frame load_frame(snap::Reader& r) {
  Frame f;
  f.opcode = r.u32();
  f.payload.resize(r.count(1));
  for (std::uint8_t& b : f.payload) b = r.u8();
  f.due_cycle = r.u64();
  return f;
}

void save_frames(snap::Writer& w, const std::vector<Frame>& q) {
  w.u64(q.size());
  for (const Frame& f : q) save_frame(w, f);
}

void load_frames(snap::Reader& r, std::vector<Frame>& q) {
  q.clear();
  for (std::size_t n = r.count(kFrameBytes); n > 0; --n) {
    q.push_back(load_frame(r));
  }
}

void Bus::save_state(snap::Writer& w) const {
  w.boolean(connected_);
  save_frames(w, to_hw_);
  save_frames(w, to_sw_);
  w.u64(stats_.frames_to_hw);
  w.u64(stats_.frames_to_sw);
  w.u64(stats_.bytes_to_hw);
  w.u64(stats_.bytes_to_sw);
  w.u64(fstats_.errors);
  w.u64(fstats_.retries);
  w.u64(fstats_.frames_dropped);
}

void Bus::load_state(snap::Reader& r) {
  connected_ = r.boolean();
  load_frames(r, to_hw_);
  load_frames(r, to_sw_);
  stats_.frames_to_hw = r.u64();
  stats_.frames_to_sw = r.u64();
  stats_.bytes_to_hw = r.u64();
  stats_.bytes_to_sw = r.u64();
  fstats_.errors = r.u64();
  fstats_.retries = r.u64();
  fstats_.frames_dropped = r.u64();
}

}  // namespace xtsoc::cosim
