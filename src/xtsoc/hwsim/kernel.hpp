// hwsim: the clocked wire file of the hardware partition.
//
// The hardware partition executes as per-tile FSM banks (cosim::HwDomain),
// each stepped once per master-clock cycle: one signal consumed per
// instance per cycle. What is observable of that execution lives here:
//
//   * a wire carries an unsigned value of a declared bit width (1..64), a
//     name and a count of its rising edges;
//   * one master clock, low at time 0 with a half period of one tick, so
//     its k-th rising edge is at time 2k - 1;
//   * edge() takes the clock through its next rising edge and commits the
//     writes the domains staged for that edge. It counts one delta cycle
//     and one process activation per registered domain (the domains are
//     what the edge clocks), but calls nothing: the domains ran before
//     the edge, on their own time;
//   * the stats and the VCD (vcd.hpp) read the wires after each edge.
//
// A domain is the only writer of its wires and stages only the writes that
// change a value, so a commit never depends on the order of domains. The
// kernel is single-threaded; parallelism lives one level up, in cosim.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "xtsoc/common/ids.hpp"
#include "xtsoc/obs/registry.hpp"

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::hwsim {

/// Thrown on kernel-level faults: bad wire width or id, a missing or second
/// master clock.
class SimError : public std::runtime_error {
public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

struct SimStats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_activations = 0;
  std::uint64_t wire_commits = 0;
};

/// One write staged for an edge: `value` (masked to the wire's width) on
/// wire `w`.
struct WireWrite {
  HwSignalId w;
  std::uint64_t value;
};

class Simulator {
public:
  /// `obs` is an optional observability sink: one "settle" span per edge
  /// on the "kernel" track, delta/activation counters on "kernel.*". It
  /// never perturbs simulation behaviour.
  explicit Simulator(obs::Registry* obs = nullptr);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- netlist construction --------------------------------------------------

  /// Create a wire of `width` bits (1..64) holding `init`.
  HwSignalId wire(int width, std::uint64_t init = 0, std::string name = {});

  /// Create the master clock: a 1-bit wire named "clk", low at time 0.
  /// At most one.
  HwSignalId clock();

  /// Register one clocked domain: each edge counts one activation for it.
  void add_domain() { ++domains_; }

  // --- wire access -------------------------------------------------------------

  std::uint64_t read(HwSignalId w) const;
  const std::string& name_of(HwSignalId w) const;
  int width_of(HwSignalId w) const;

  // --- execution ---------------------------------------------------------------

  /// Take the master clock through its next rising edge (falling first,
  /// one tick earlier, unless this is the first edge), then commit each
  /// batch of `staged` in order. A write that changes its wire counts one
  /// wire commit, and one posedge of a 1-bit wire going 0 -> 1.
  void edge(std::span<const std::vector<WireWrite>* const> staged);

  std::uint64_t now() const { return now_; }
  std::uint64_t posedge_count(HwSignalId w) const;
  const SimStats& stats() const { return stats_; }
  std::size_t wire_count() const { return wires_.size(); }

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the dynamic kernel state: wire values and posedge counts,
  /// the clock's schedule, time, whether an edge ran, and the stats. The
  /// netlist (wires, widths, clock, domains) is not serialized: a restore
  /// re-elaborates the same netlist from the model, and load_state refuses
  /// a snapshot whose shape (wire count and widths, clock count and half
  /// period) or clock schedule disagrees with it.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct WireState {
    std::uint64_t value = 0;
    int width = 1;
    std::uint64_t mask = 1;
    std::string name;
    std::uint64_t posedges = 0;  ///< rising-edge counter (1-bit wires)
  };

  WireState& state(HwSignalId w);
  const WireState& state(HwSignalId w) const;
  /// Set `s` to `value`, counting the commit and a rising edge.
  void commit(WireState& s, std::uint64_t value);

  std::vector<WireState> wires_;
  HwSignalId clock_;
  std::uint64_t domains_ = 0;
  std::uint64_t now_ = 0;
  SimStats stats_;

  // Observability (null members when no registry is attached).
  obs::Registry* obs_ = nullptr;
  obs::TrackId obs_track_;
};

}  // namespace xtsoc::hwsim
