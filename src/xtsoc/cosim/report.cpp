#include "xtsoc/cosim/report.hpp"

#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/mem/mem.hpp"

namespace xtsoc::cosim {

using obs::JsonValue;

JsonValue to_json(const hwsim::SimStats& s) {
  JsonValue v = JsonValue::object();
  v["delta_cycles"] = s.delta_cycles;
  v["process_activations"] = s.process_activations;
  v["wire_commits"] = s.wire_commits;
  return v;
}

JsonValue to_json(const BusStats& s, int latency_cycles) {
  JsonValue v = JsonValue::object();
  v["kind"] = "bus";
  v["latency"] = latency_cycles;
  v["frames_to_hw"] = s.frames_to_hw;
  v["frames_to_sw"] = s.frames_to_sw;
  v["bytes_to_hw"] = s.bytes_to_hw;
  v["bytes_to_sw"] = s.bytes_to_sw;
  return v;
}

JsonValue to_json(const noc::FabricStats& s) {
  JsonValue v = JsonValue::object();
  v["kind"] = "noc";
  JsonValue& mesh = v["mesh"];
  mesh = JsonValue::object();
  mesh["width"] = s.width;
  mesh["height"] = s.height;
  // Named only off the default, so mesh+XY reports stay byte-identical to
  // the pre-topology format (the same conditional-section pattern the
  // "faults" and "engines" blocks use).
  if (s.topology != noc::TopologyKind::kMesh ||
      s.routing != noc::RoutePolicy::kXY) {
    v["topology"] = to_string(s.topology);
    v["routing"] = to_string(s.routing);
  }
  v["cycles"] = s.cycles;
  v["frames_sent"] = s.frames_sent;
  v["frames_delivered"] = s.frames_delivered;
  v["flits_injected"] = s.flits_injected;
  v["payload_bytes"] = s.payload_bytes;

  JsonValue& routers = v["routers"];
  routers = JsonValue::array();
  for (std::size_t i = 0; i < s.routers.size(); ++i) {
    const noc::RouterStats& r = s.routers[i];
    JsonValue e = JsonValue::object();
    e["tile"] = static_cast<std::uint64_t>(i);
    e["x"] = s.width == 0 ? 0 : static_cast<int>(i) % s.width;
    e["y"] = s.width == 0 ? 0 : static_cast<int>(i) / s.width;
    e["flits_routed"] = r.flits_routed;
    e["flits_ejected"] = r.flits_ejected;
    e["credit_stalls"] = r.credit_stalls;
    e["buffer_high_water"] = static_cast<std::uint64_t>(r.buffer_high_water);
    routers.push_back(std::move(e));
  }

  JsonValue& links = v["links"];
  links = JsonValue::array();
  for (const noc::LinkStats& l : s.links) {
    JsonValue e = JsonValue::object();
    e["from_tile"] = l.from_tile;
    e["dir"] = noc::to_string(l.dir);
    e["flits"] = l.flits;
    e["utilization"] = s.link_utilization(l);
    links.push_back(std::move(e));
  }

  JsonValue& lat = v["latency"];
  lat = JsonValue::object();
  lat["count"] = s.latency.count;
  lat["mean"] = s.latency.mean();
  lat["min"] = s.latency.min;
  lat["max"] = s.latency.max;
  JsonValue& buckets = lat["buckets"];
  buckets = JsonValue::array();
  for (int b = 0; b < noc::LatencyHistogram::kBuckets; ++b) {
    if (s.latency.buckets[static_cast<std::size_t>(b)] == 0) continue;
    JsonValue e = JsonValue::object();
    e["lo"] = std::uint64_t{1} << b;
    e["count"] = s.latency.buckets[static_cast<std::size_t>(b)];
    buckets.push_back(std::move(e));
  }
  return v;
}

obs::Snapshot CoSimulation::report() const {
  obs::Snapshot snap;

  JsonValue& run = snap["run"];
  run = JsonValue::object();
  run["cycles"] = cycle_;
  run["lookahead"] = lookahead_;
  run["window"] = window_;
  run["threads"] = config_.threads;
  run["interconnect"] = has_fabric() ? "noc" : "bus";

  snap["sim"] = to_json(sim_->stats());
  snap["interconnect"] = has_fabric()
                             ? to_json(fabric_->stats())
                             : to_json(bus_->stats(), bus_->latency());

  JsonValue& domains = snap["domains"];
  domains = JsonValue::array();
  for (std::size_t i = 0; i < hw_domains_.size(); ++i) {
    const runtime::Executor& e = hw_domains_[i]->executor();
    JsonValue d = JsonValue::object();
    d["name"] = "hw" + std::to_string(i);
    d["dispatches"] = e.dispatch_count();
    d["ops"] = e.ops_executed();
    d["queue_high_water"] = static_cast<std::uint64_t>(e.queue_high_water());
    domains.push_back(std::move(d));
  }
  {
    const runtime::Executor& e = sw_executor();
    JsonValue d = JsonValue::object();
    d["name"] = "sw";
    d["dispatches"] = e.dispatch_count();
    d["ops"] = e.ops_executed();
    d["queue_high_water"] = static_cast<std::uint64_t>(e.queue_high_water());
    domains.push_back(std::move(d));
  }

  // Per-class activity in ClassId order, counted by the executor that owns
  // the class; the repartition advisor reads this section.
  auto domain_of = [this](ClassId cls) {
    std::size_t i = 0;
    while (i < hw_domains_.size() &&
           hw_domains_[i].get() != hw_domain_of_[cls.value()]) {
      ++i;
    }
    return i < hw_domains_.size() ? "hw" + std::to_string(i)
                                  : std::string("sw");
  };
  JsonValue& classes = snap["classes"];
  classes = JsonValue::array();
  for (const xtuml::ClassDef& c : sys_->domain().classes()) {
    const runtime::Executor& e = executor_of(c.id);
    JsonValue k = JsonValue::object();
    k["name"] = c.name;
    k["domain"] = domain_of(c.id);
    k["dispatches"] = e.dispatch_count(c.id);
    k["ops"] = e.ops_executed(c.id);
    k["live"] = static_cast<std::uint64_t>(e.database().live_count(c.id));
    classes.push_back(std::move(k));
  }

  // Like faults below, the engines section exists only when the caller
  // recorded an engine request, so default runs keep byte-identical
  // reports — which is what lets the jit-vs-walker parity grid compare
  // whole snapshots.
  if (!config_.engine_status.requested.empty()) {
    const EngineStatus& es = config_.engine_status;
    JsonValue& eng = snap["engines"];
    eng = JsonValue::object();
    eng["requested"] = es.requested;
    eng["active"] = es.active;
    if (!es.fallback_reason.empty()) {
      eng["fallback_reason"] = es.fallback_reason;
    }
    if (!es.digest.empty()) {
      eng["digest"] = es.digest;
      eng["cache_hit"] = es.cache_hit;
    }
  }

  // The memory section exists only when the marks placed a DRAM tile, so
  // runs without memory marks keep byte-identical reports.
  if (mem_ != nullptr) {
    const mem::MemStats& ms = mem_->stats();
    const mem::MemConfig& mc = mem_->config();
    JsonValue& m = snap["memory"];
    m = JsonValue::object();
    JsonValue& geo = m["config"];
    geo = JsonValue::object();
    geo["dram_tile"] = mc.dram_tile;
    geo["sets"] = mc.sets;
    geo["ways"] = mc.ways;
    geo["line_bytes"] = mc.line_bytes;
    m["loads"] = ms.loads;
    m["stores"] = ms.stores;
    m["hits"] = ms.hits;
    m["misses"] = ms.misses;
    m["evictions"] = ms.evictions;
    m["writebacks"] = ms.writebacks;
    m["invalidations"] = ms.invalidations;
    m["dram_reads"] = ms.dram_reads;
    m["dram_writes"] = ms.dram_writes;
    m["dram_row_hits"] = ms.dram_row_hits;
    m["dram_row_conflicts"] = ms.dram_row_conflicts;
    m["coh_frames"] = ms.coh_frames;
    m["coh_flits"] = ms.coh_flits;
    m["coh_payload_bytes"] = ms.coh_payload_bytes;
    m["mean_load_use"] = ms.mean_load_use();
  }

  // The faults section exists only when a plan is attached, so a fault-free
  // run's snapshot is byte-identical to one from a build without faults.
  if (config_.fault != nullptr) {
    JsonValue& f = snap["faults"];
    f = JsonValue::object();
    f["seed"] = config_.fault->spec().seed;
    if (has_fabric()) {
      f["noc"] = to_json(fabric_->fault_stats());
    } else {
      f["bus"] = to_json(bus_->fault_stats());
    }
  }
  return snap;
}

JsonValue to_json(const noc::FabricFaultStats& s) {
  JsonValue v = JsonValue::object();
  v["flits_dropped"] = s.flits_dropped;
  v["flits_corrupted"] = s.flits_corrupted;
  v["link_down_events"] = s.link_down_events;
  v["link_down_drops"] = s.link_down_drops;
  v["crc_rejects"] = s.crc_rejects;
  v["orphan_flits"] = s.orphan_flits;
  v["retransmissions"] = s.retransmissions;
  v["duplicates_dropped"] = s.duplicates_dropped;
  v["acks_delivered"] = s.acks_delivered;
  v["frames_lost"] = s.frames_lost;
  v["tainted_delivered"] = s.tainted_delivered;
  return v;
}

JsonValue to_json(const BusFaultStats& s) {
  JsonValue v = JsonValue::object();
  v["errors"] = s.errors;
  v["retries"] = s.retries;
  v["frames_dropped"] = s.frames_dropped;
  return v;
}

fault::RunOutcome outcome_of(const CoSimulation& cs, const fault::Plan& plan) {
  fault::RunOutcome o;
  o.seed = plan.spec().seed;
  o.cycles = cs.cycles();
  if (cs.has_fabric()) {
    const noc::FabricFaultStats& f = cs.fabric().fault_stats();
    const noc::FabricStats s = cs.fabric().stats();
    o.delivered = s.frames_delivered;
    o.dropped = f.frames_lost;
    o.retried = f.retransmissions;
    o.injected = f.flits_dropped + f.flits_corrupted + f.link_down_events;
  } else {
    const BusFaultStats& f = cs.bus().fault_stats();
    const BusStats& s = cs.bus().stats();
    o.delivered = s.frames_to_hw + s.frames_to_sw;
    o.dropped = f.frames_dropped;
    o.retried = f.retries;
    o.injected = f.errors;
  }
  o.survived = o.dropped == 0;
  return o;
}

RepartitionAdvice suggest_repartition(const obs::Snapshot& report) {
  RepartitionAdvice advice;
  const JsonValue::Array& classes = report.at("classes").as_array();
  auto in_software = [](const JsonValue& c) {
    return c.at("domain").as_string() == "sw";
  };

  // Software class doing the most action work: the hardware candidate.
  const JsonValue* busiest_sw = nullptr;
  std::uint64_t busiest_ops = 0;
  std::uint64_t sw_ops = 0;
  for (const JsonValue& c : classes) {
    if (!in_software(c)) continue;
    const std::uint64_t ops = c.at("ops").as_uint();
    sw_ops += ops;
    if (busiest_sw == nullptr || ops > busiest_ops) {
      busiest_sw = &c;
      busiest_ops = ops;
    }
  }
  if (busiest_ops > 0) {
    advice.has_suggestion = true;
    advice.class_name = busiest_sw->at("name").as_string();
    advice.move_to = marks::Target::kHardware;
    advice.rationale = "'" + advice.class_name + "' accounts for " +
                       std::to_string(busiest_ops) + " of " +
                       std::to_string(sw_ops) +
                       " software action ops; mark it isHardware and "
                       "regenerate";
    return advice;
  }

  // Otherwise: an idle hardware class can come back to software.
  for (const JsonValue& c : classes) {
    if (!in_software(c) && c.at("dispatches").as_uint() == 0) {
      advice.has_suggestion = true;
      advice.class_name = c.at("name").as_string();
      advice.move_to = marks::Target::kSoftware;
      advice.rationale = "'" + advice.class_name +
                         "' saw no hardware traffic; reclaim its fabric by "
                         "clearing isHardware";
      return advice;
    }
  }
  return advice;
}

}  // namespace xtsoc::cosim
