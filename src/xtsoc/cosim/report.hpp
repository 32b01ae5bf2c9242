// The one stats-reporting path of the co-simulation stack.
//
// Three stats structs grew up separately — hwsim::SimStats, cosim::BusStats,
// noc::FabricStats — each with its own printing/JSON habits. The adapters
// below render each of them as an obs::JsonValue, and
// CoSimulation::report() assembles the adapters into one obs::Snapshot:
//
//   {
//     "run":          { cycles, lookahead, window, threads, interconnect },
//     "sim":          to_json(SimStats),
//     "interconnect": to_json(BusStats) | to_json(FabricStats),
//     "domains":      [ { name, dispatches, ops, queue_high_water }, ... ],
//     "classes":      [ { name, domain, dispatches, ops, live }, ... ],
//   }
//
// Every consumer (xtsocc --obs=snapshot, the repartition advisor below, the
// tests) reads this document; nothing serializes a stats struct by hand
// anymore. Each count lives once, in its subsystem's stats: an attached
// obs::Registry records spans only and changes no byte of the report.
#pragma once

#include "xtsoc/cosim/bus.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/hwsim/kernel.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/obs/json.hpp"
#include "xtsoc/obs/snapshot.hpp"

namespace xtsoc::cosim {

class CoSimulation;

/// { "delta_cycles": n, "process_activations": n, "wire_commits": n }
obs::JsonValue to_json(const hwsim::SimStats& s);

/// { "kind": "bus", "latency": n, "frames_to_hw": n, ... }
obs::JsonValue to_json(const BusStats& s, int latency_cycles);

/// { "kind": "noc", "mesh": {...}, "routers": [...], "links": [...],
///   "latency": {...} } — the report's "interconnect" section in mesh mode.
obs::JsonValue to_json(const noc::FabricStats& s);

/// { "flits_dropped": n, "crc_rejects": n, ... } — the NoC half of the
/// snapshot's "faults" section (emitted only when a plan is attached).
obs::JsonValue to_json(const noc::FabricFaultStats& s);

/// { "errors": n, "retries": n, "frames_dropped": n } — the bus half.
obs::JsonValue to_json(const BusFaultStats& s);

/// Summarize one co-simulation run under `plan` as a campaign row:
/// delivered/dropped/retried/injected counts from whichever interconnect
/// the mapping chose, survival = nothing was lost anywhere.
fault::RunOutcome outcome_of(const CoSimulation& cs, const fault::Plan& plan);

// The paper's §1 loop: "Once the prototype runs, it is possible to measure
// the performance, which may require changing the partition." report() is
// that measurement; suggest_repartition() proposes which mark to move next.

struct RepartitionAdvice {
  bool has_suggestion = false;
  std::string class_name;  ///< class whose mark should move
  marks::Target move_to = marks::Target::kHardware;
  std::string rationale;
};

/// Reads the report's "classes" section. The software class doing the most
/// action work (ops) is the hardware candidate; failing that, a hardware
/// class that dispatched nothing can return to software.
RepartitionAdvice suggest_repartition(const obs::Snapshot& report);

}  // namespace xtsoc::cosim
