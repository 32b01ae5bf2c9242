// Performance measurement over executions.
//
// The paper's §1 motivation: "Once the prototype runs, it is possible to
// measure the performance, which may require changing the partition."
// PerfReport is that measurement; suggest_repartition() closes the loop by
// proposing which mark to move next.
#pragma once

#include <string>
#include <vector>

#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/runtime/executor.hpp"

namespace xtsoc::perf {

struct ClassPerf {
  ClassId cls;
  std::string name;
  marks::Target target = marks::Target::kSoftware;
  std::uint64_t dispatches = 0;
  std::uint64_t ops = 0;  ///< action work (interpreter ops) in this class
  std::uint64_t live_instances = 0;
};

struct PerfReport {
  std::uint64_t cycles = 0;
  std::uint64_t hw_dispatches = 0;  ///< summed over all hardware tiles
  std::uint64_t sw_dispatches = 0;
  std::uint64_t bus_frames = 0;  ///< interconnect frames (bus or NoC)
  std::uint64_t bus_bytes = 0;   ///< interconnect payload bytes
  std::uint64_t hw_delta_cycles = 0;
  std::size_t hw_queue_high_water = 0;  ///< fabric FIFO sizing number
  std::size_t sw_queue_high_water = 0;  ///< software mailbox sizing number
  std::vector<ClassPerf> classes;
  /// Present only in mesh mode: per-router/per-link NoC measurements.
  bool has_noc = false;
  noc::FabricStats noc;

  /// Dispatches per hardware cycle on the software side — the software
  /// saturation signal that motivates moving work into hardware.
  double sw_load() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(sw_dispatches) /
                             static_cast<double>(cycles);
  }

  /// Fixed-width table for terminals and EXPERIMENTS.md.
  std::string to_table() const;
};

/// Snapshot measurements from a finished (or paused) co-simulation.
PerfReport measure(const cosim::CoSimulation& cosim);

struct RepartitionAdvice {
  bool has_suggestion = false;
  std::string class_name;        ///< class whose mark should move
  marks::Target move_to = marks::Target::kHardware;
  std::string rationale;
};

/// Heuristic advisor: the busiest software class is the hardware candidate
/// (and a hardware class with negligible traffic could return to software).
RepartitionAdvice suggest_repartition(const PerfReport& report);

}  // namespace xtsoc::perf
