#include "xtsoc/fault/fault.hpp"

#include "xtsoc/common/rng.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::fault {

FaultSpec FaultSpec::from_marks(const marks::MarkSet& marks) {
  auto count = [&](const char* key) {
    return static_cast<std::uint64_t>(marks.domain_mark_int(key));
  };
  FaultSpec s;
  s.seed = count(marks::kFaultSeed);
  s.window = count(marks::kFaultWindow);
  s.window_start = count(marks::kFaultWindowStart);
  s.flit_drop = marks.domain_mark_number(marks::kFaultRateFlitDrop);
  s.flit_corrupt = marks.domain_mark_number(marks::kFaultRateFlitCorrupt);
  s.link_down = marks.domain_mark_number(marks::kFaultRateLinkDown);
  s.bus_error = marks.domain_mark_number(marks::kFaultRateBusError);
  return s;
}

std::uint64_t Plan::next(Site kind, std::uint32_t site) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kind) << 32) | static_cast<std::uint64_t>(site);
  auto [it, inserted] = streams_.try_emplace(key, 0);
  if (inserted) {
    // Never zero: xorshift's one fixed point.
    it->second = splitmix64(spec_.seed ^ splitmix64(key)) | 1;
  }
  Xorshift64Star s;
  s.set_state(it->second);
  const std::uint64_t draw = s.next();
  it->second = s.state();
  return draw;
}

template <class Io, class Self>
void Plan::layout(Io& io, Self& self) {
  io.map(self.streams_, 8 + 8, [&](auto& key, auto& state) {
    io.u64(key);
    io.u64(state);
  });
}

void Plan::save_state(snap::Writer& w) const { layout(w, *this); }

void Plan::load_state(snap::Reader& r) { layout(r, *this); }

bool Plan::roll(Site kind, std::uint32_t site, double rate,
                std::uint64_t cycle) {
  if (rate <= 0.0 || !active(cycle)) return false;
  if (rate >= 1.0) return true;
  const double u =
      static_cast<double>(next(kind, site) >> 11) * 0x1.0p-53;  // [0, 1)
  return u < rate;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

}  // namespace xtsoc::fault
