// The model compiler front half: marks + compiled model -> MappedSystem.
//
// "At system construction time, the conceptual objects are mapped to
// hardware and software" (paper §4). A MappedSystem is everything
// downstream consumers need: the partition, the synthesized boundary
// interface, and per-class mapping attributes (clock domain, pool size).
// The text backends (src/xtsoc/codegen) and the executable backends
// (src/xtsoc/cosim) both start from a MappedSystem, which is how the
// "single consistent set of architectural rules" stays single.
#pragma once

#include <memory>

#include "xtsoc/mapping/interface.hpp"
#include "xtsoc/mapping/partition.hpp"

namespace xtsoc::mapping {

/// Mapping attributes of one class, resolved from marks with defaults.
struct ClassMapping {
  ClassId cls;
  marks::Target target = marks::Target::kSoftware;
  /// hardware classes: which clock drives the FSM
  int clock_domain = mark_default(marks::kClockDomain);
  /// instance pool capacity (C pool, VHDL bank)
  int max_instances = mark_default(marks::kMaxInstances);
  int int_width = mark_default(marks::kIntWidth);  ///< wire width of int fields
};

class MappedSystem {
public:
  MappedSystem(const oal::CompiledDomain& compiled, Partition partition,
               InterfaceSpec interface, std::vector<ClassMapping> class_maps,
               int bus_latency)
      : compiled_(&compiled), partition_(std::move(partition)),
        interface_(std::move(interface)), class_maps_(std::move(class_maps)),
        bus_latency_(bus_latency) {}

  const oal::CompiledDomain& compiled() const { return *compiled_; }
  const xtuml::Domain& domain() const { return compiled_->domain(); }
  const Partition& partition() const { return partition_; }
  const InterfaceSpec& interface() const { return interface_; }
  const ClassMapping& mapping_of(ClassId cls) const {
    return class_maps_.at(cls.value());
  }
  const std::vector<ClassMapping>& class_mappings() const {
    return class_maps_;
  }
  /// Cross-boundary signal latency in hardware clock ticks.
  int bus_latency() const { return bus_latency_; }

  /// Conservative lookahead of the mapped interconnect, in hardware clock
  /// cycles: no frame sent at cycle c can become deliverable before
  /// c + lookahead(). On the mesh this is the NIC-egress link traversal
  /// (link_latency; the full path is at least one hop more); on the bus it
  /// is the busLatency mark, floored at 1 so a zero-latency bus runs
  /// one-cycle windows rather than an illegal one (its frames land a cycle
  /// after they were sent). This is the static bound the windowed
  /// co-simulation scheduler builds on (src/xtsoc/cosim/cosim.hpp).
  int lookahead() const {
    if (partition_.mesh().enabled) return partition_.mesh().link_latency;
    return bus_latency_ > 1 ? bus_latency_ : 1;
  }

private:
  const oal::CompiledDomain* compiled_;
  Partition partition_;
  InterfaceSpec interface_;
  std::vector<ClassMapping> class_maps_;
  int bus_latency_;
};

/// Run the whole mapping pipeline:
///   validate marks -> compute partition -> validate partition ->
///   synthesize interface -> resolve class mappings.
/// Returns nullptr (with diagnostics in `sink`) if any stage fails.
std::unique_ptr<MappedSystem> map_system(const oal::CompiledDomain& compiled,
                                         const marks::MarkSet& marks,
                                         DiagnosticSink& sink);

}  // namespace xtsoc::mapping
