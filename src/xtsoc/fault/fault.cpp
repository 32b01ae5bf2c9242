#include "xtsoc/fault/fault.hpp"

#include <algorithm>
#include <variant>

#include "xtsoc/common/rng.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::fault {

namespace {

double read_rate(const marks::MarkSet& marks, const char* key) {
  auto v = marks.domain_mark(key);
  if (!v) return 0.0;
  double rate = 0.0;
  if (std::holds_alternative<double>(*v)) {
    rate = std::get<double>(*v);
  } else if (std::holds_alternative<std::int64_t>(*v)) {
    rate = static_cast<double>(std::get<std::int64_t>(*v));
  }
  return std::clamp(rate, 0.0, 1.0);
}

}  // namespace

FaultSpec FaultSpec::from_marks(const marks::MarkSet& marks) {
  FaultSpec s;
  std::int64_t seed = marks.domain_mark_int(kFaultSeed, 1);
  s.seed = seed < 0 ? 1 : static_cast<std::uint64_t>(seed);
  std::int64_t window = marks.domain_mark_int(kFaultWindow, 0);
  s.window = window < 0 ? 0 : static_cast<std::uint64_t>(window);
  std::int64_t start = marks.domain_mark_int(kFaultWindowStart, 0);
  s.window_start = start < 0 ? 0 : static_cast<std::uint64_t>(start);
  s.flit_drop = read_rate(marks, kFaultRateFlitDrop);
  s.flit_corrupt = read_rate(marks, kFaultRateFlitCorrupt);
  s.link_down = read_rate(marks, kFaultRateLinkDown);
  s.bus_error = read_rate(marks, kFaultRateBusError);
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
