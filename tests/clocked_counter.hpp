// Test fixture: a clocked up-counter on the hwsim kernel, the smallest
// process that commits a wire change on every rising edge.
#pragma once

#include <string>
#include <utility>

#include "xtsoc/hwsim/kernel.hpp"

namespace xtsoc::testing {

/// Adds a `width`-bit wire named `name` that counts rising edges of `clk`
/// (wrapping at 2^width) and returns it.
inline HwSignalId clocked_counter(hwsim::Simulator& sim, HwSignalId clk,
                                  int width, std::string name = "counter") {
  const HwSignalId value = sim.wire(width, 0, std::move(name));
  sim.on_posedge(clk, [value](hwsim::Simulator& s) {
    s.nba_write(value, s.read(value) + 1);
  });
  return value;
}

}  // namespace xtsoc::testing
