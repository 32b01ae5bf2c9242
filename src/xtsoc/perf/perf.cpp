#include "xtsoc/perf/perf.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace xtsoc::perf {

PerfReport measure(const cosim::CoSimulation& cosim) {
  PerfReport r;
  const mapping::MappedSystem& sys = cosim.system();
  const xtuml::Domain& domain = sys.domain();

  r.cycles = cosim.cycles();
  for (const auto& hw : cosim.hw_domains()) {
    r.hw_dispatches += hw->dispatches();
    r.hw_queue_high_water =
        std::max(r.hw_queue_high_water, hw->executor().queue_high_water());
  }
  r.sw_dispatches = cosim.sw_executor().dispatch_count();
  if (cosim.has_fabric()) {
    const noc::FabricStats& fs = cosim.fabric().stats();
    r.bus_frames = fs.frames_delivered;
    r.bus_bytes = fs.payload_bytes;
    r.has_noc = true;
    r.noc = fs;
  } else {
    r.bus_frames =
        cosim.bus().stats().frames_to_hw + cosim.bus().stats().frames_to_sw;
    r.bus_bytes =
        cosim.bus().stats().bytes_to_hw + cosim.bus().stats().bytes_to_sw;
  }
  r.hw_delta_cycles = cosim.hw_sim().stats().delta_cycles;
  r.sw_queue_high_water = cosim.sw_executor().queue_high_water();

  for (const auto& c : domain.classes()) {
    ClassPerf cp;
    cp.cls = c.id;
    cp.name = c.name;
    cp.target = sys.partition().target_of(c.id);
    const runtime::Executor& owner = cosim.executor_of(c.id);
    cp.dispatches = owner.dispatch_count(c.id);
    cp.ops = owner.ops_executed(c.id);
    cp.live_instances = owner.database().live_count(c.id);
    r.classes.push_back(std::move(cp));
  }
  return r;
}

std::string PerfReport::to_table() const {
  std::ostringstream os;
  os << "cycles=" << cycles << " hw_dispatches=" << hw_dispatches
     << " sw_dispatches=" << sw_dispatches << " bus_frames=" << bus_frames
     << " bus_bytes=" << bus_bytes << " sw_load=" << std::fixed
     << std::setprecision(3) << sw_load() << " queue_hiwater(hw/sw)="
     << hw_queue_high_water << '/' << sw_queue_high_water << '\n';
  os << std::left << std::setw(20) << "class" << std::setw(10) << "target"
     << std::right << std::setw(12) << "dispatches" << std::setw(12)
     << "work(ops)" << std::setw(10) << "alive" << '\n';
  for (const auto& c : classes) {
    os << std::left << std::setw(20) << c.name << std::setw(10)
       << marks::to_string(c.target) << std::right << std::setw(12)
       << c.dispatches << std::setw(12) << c.ops << std::setw(10)
       << c.live_instances << '\n';
  }
  if (has_noc) os << noc.to_table();
  return os.str();
}

RepartitionAdvice suggest_repartition(const PerfReport& report) {
  RepartitionAdvice advice;

  // Software class doing the most action work: the hardware candidate.
  const ClassPerf* busiest_sw = nullptr;
  std::uint64_t sw_ops = 0;
  for (const auto& c : report.classes) {
    if (c.target != marks::Target::kSoftware) continue;
    sw_ops += c.ops;
    if (busiest_sw == nullptr || c.ops > busiest_sw->ops) {
      busiest_sw = &c;
    }
  }
  if (busiest_sw != nullptr && busiest_sw->ops > 0) {
    advice.has_suggestion = true;
    advice.class_name = busiest_sw->name;
    advice.move_to = marks::Target::kHardware;
    std::ostringstream os;
    os << "'" << busiest_sw->name << "' accounts for " << busiest_sw->ops
       << " of " << sw_ops
       << " software action ops; mark it isHardware and regenerate";
    advice.rationale = os.str();
    return advice;
  }

  // Otherwise: an idle hardware class can come back to software.
  for (const auto& c : report.classes) {
    if (c.target == marks::Target::kHardware && c.dispatches == 0) {
      advice.has_suggestion = true;
      advice.class_name = c.name;
      advice.move_to = marks::Target::kSoftware;
      advice.rationale = "'" + c.name +
                         "' saw no hardware traffic; reclaim its fabric by "
                         "clearing isHardware";
      return advice;
    }
  }
  return advice;
}

}  // namespace xtsoc::perf
