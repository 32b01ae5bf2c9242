#include "xtsoc/cosim/cosim.hpp"

#include <algorithm>
#include <chrono>

#include "xtsoc/hwsim/pool.hpp"

namespace xtsoc::cosim {

CoSimulation::CoSimulation(const mapping::MappedSystem& sys, CoSimConfig config)
    : sys_(&sys), config_(config) {
  // Derive the execution window from the static interconnect lookahead.
  // Every run goes through the window path; a window of one cycle is
  // always sound (the lookahead is never below 1).
  lookahead_ = sys.lookahead();
  window_ = config_.window == 0 ? lookahead_
                                : std::min(config_.window, lookahead_);
  if (window_ < 1) window_ = 1;

  // Claim the master's timeline lane first so the exported trace reads
  // top-to-bottom: cosim, kernel, then the domains and the mesh.
  obs_ = config_.obs;
  if (obs_ != nullptr) obs_track_ = obs_->track("cosim");

  sim_ = std::make_unique<hwsim::Simulator>(config_.obs);
  sim_->clock();

  runtime::ExecutorConfig ecfg;
  ecfg.policy = config_.policy;
  ecfg.engine = config_.engine;
  ecfg.compiled = config_.compiled;
  ecfg.trace_enabled = config_.trace_enabled;
  ecfg.max_ops_per_action = config_.max_ops_per_action;
  ecfg.obs = config_.obs;

  const mapping::Partition& part = sys.partition();
  hw_domain_of_.resize(sys.domain().class_count(), nullptr);

  // Connect-time interface handshake. Each endpoint presents the digest of
  // the interface it was generated against; a mismatch aborts before any
  // traffic can be mis-decoded.
  std::string hw_digest = sys.interface().digest(sys.domain());
  std::string sw_digest = config_.forged_sw_digest.empty()
                              ? hw_digest
                              : config_.forged_sw_digest;

  if (part.mesh().enabled) {
    // Mesh mode: mark-driven tile placement, one hardware clock domain per
    // occupied tile, software on its own tile, all behind NICs.
    const mapping::MeshSpec& mesh = part.mesh();
    noc::FabricConfig fcfg;
    fcfg.width = mesh.width;
    fcfg.height = mesh.height;
    fcfg.topology = mesh.topology;
    fcfg.routing = mesh.routing;
    fcfg.link_latency = mesh.link_latency;
    fcfg.flit_payload_bytes = mesh.flit_bytes;
    fcfg.fifo_depth = mesh.fifo_depth;
    fcfg.obs = config_.obs;
    fcfg.fault = config_.fault;
    fabric_ = std::make_unique<noc::Fabric>(fcfg);

    if (hw_digest != sw_digest) {
      throw InterfaceMismatch(
          "interface digest mismatch at fabric connect: hardware side " +
          hw_digest + " vs software side " + sw_digest);
    }

    for (int tile : part.hardware_tiles()) {
      auto chan = std::make_unique<FabricChannel>(*fabric_, sys, tile);
      std::vector<ClassId> owned;
      for (ClassId cls : part.hardware()) {
        if (part.tile_of(cls) == tile) owned.push_back(cls);
      }
      if (obs_ != nullptr) {
        ecfg.obs_track = obs_->track(
            "executor/hw" + std::to_string(hw_domains_.size()));
      }
      hw_domains_.push_back(std::make_unique<HwDomain>(
          sys, *sim_, *chan, std::move(owned), ecfg));
      for (ClassId cls : hw_domains_.back()->owned()) {
        hw_domain_of_[cls.value()] = hw_domains_.back().get();
      }
      channels_.push_back(std::move(chan));
    }
    auto sw_chan =
        std::make_unique<FabricChannel>(*fabric_, sys, mesh.sw_tile());
    if (obs_ != nullptr) ecfg.obs_track = obs_->track("executor/sw");
    sw_ = std::make_unique<SwDomain>(sys, *sw_chan, ecfg);
    channels_.push_back(std::move(sw_chan));
    channel_of_tile_.assign(static_cast<std::size_t>(fabric_->tiles()), -1);
    for (auto& ch : channels_) {
      auto* fc = static_cast<FabricChannel*>(ch.get());
      channel_of_tile_[static_cast<std::size_t>(fc->tile())] =
          static_cast<int>(fabric_channels_.size());
      fabric_channels_.push_back(fc);
    }
    signals_held_.resize(channels_.size());
    coherence_held_.resize(channels_.size());

    if (part.mem().enabled) {
      // The `dram.tile` mark switches the memory hierarchy on. Domain tags
      // mirror the serial flush order (hardware tiles ascending, software
      // last) so the timing replay consumes accesses in the exact order the
      // serial master issues them.
      const mapping::MemSpec& ms = part.mem();
      mem::MemConfig mcfg;
      mcfg.dram_tile = ms.dram_tile;
      mcfg.sets = ms.sets;
      mcfg.ways = ms.ways;
      mcfg.line_bytes = ms.line_bytes;
      mcfg.hit_latency = ms.hit_latency;
      mcfg.t_rcd = ms.t_rcd;
      mcfg.t_cas = ms.t_cas;
      mcfg.t_rp = ms.t_rp;
      mcfg.flit_bytes = mesh.flit_bytes;
      mcfg.lookahead = static_cast<std::uint64_t>(lookahead_);
      mem_ = std::make_unique<mem::System>(mcfg, fabric_.get());
      const std::vector<int> hw_tiles = part.hardware_tiles();
      for (std::size_t d = 0; d < hw_domains_.size(); ++d) {
        runtime::Executor& exec = hw_domains_[d]->executor();
        const int tag = mem_->add_domain(hw_tiles[d], &exec);
        exec.set_memory_port(mem_->port(tag));
      }
      runtime::Executor& sw_exec = sw_->executor();
      const int sw_mem_tag = mem_->add_domain(mesh.sw_tile(), &sw_exec);
      sw_exec.set_memory_port(mem_->port(sw_mem_tag));
    }
  } else {
    // Bus mode: the 1x2 degenerate topology, byte-identical to the
    // pre-mesh behavior.
    bus_ = std::make_unique<Bus>(sys.bus_latency());
    bus_->set_fault(config_.fault);
    auto hw_chan =
        std::make_unique<BusEndpoint>(*bus_, BusEndpoint::Side::kHardware);
    auto sw_chan =
        std::make_unique<BusEndpoint>(*bus_, BusEndpoint::Side::kSoftware);

    std::vector<ClassId> owned(part.hardware().begin(), part.hardware().end());
    if (obs_ != nullptr) ecfg.obs_track = obs_->track("executor/hw0");
    hw_domains_.push_back(std::make_unique<HwDomain>(
        sys, *sim_, *hw_chan, std::move(owned), ecfg));
    for (ClassId cls : hw_domains_.back()->owned()) {
      hw_domain_of_[cls.value()] = hw_domains_.back().get();
    }
    if (obs_ != nullptr) ecfg.obs_track = obs_->track("executor/sw");
    sw_ = std::make_unique<SwDomain>(sys, *sw_chan, ecfg);
    channels_.push_back(std::move(hw_chan));
    channels_.push_back(std::move(sw_chan));

    bus_->connect(hw_digest, sw_digest);
  }

  // Useful parallelism is bounded by phase A's fan-out: hardware domains
  // plus software. Spawning more workers than that only buys handshake
  // overhead (a 2x2 mesh at threads=4 measured SLOWER than serial before
  // this cap).
  const int useful = static_cast<int>(hw_domains_.size()) + 1;
  pool_ = std::make_unique<hwsim::WorkerPool>(
      std::min(config_.threads, useful));
}

CoSimulation::~CoSimulation() = default;

runtime::Executor& CoSimulation::executor_of(ClassId cls) {
  HwDomain* d =
      cls.value() < hw_domain_of_.size() ? hw_domain_of_[cls.value()] : nullptr;
  if (d == nullptr) return sw_->executor();
  d->wake(cycle_);
  return d->executor();
}

runtime::Executor& CoSimulation::hw_executor() {
  hw_domains_.front()->wake(cycle_);
  return hw_domains_.front()->executor();
}

const runtime::Executor& CoSimulation::executor_of(ClassId cls) const {
  HwDomain* d =
      cls.value() < hw_domain_of_.size() ? hw_domain_of_[cls.value()] : nullptr;
  return d != nullptr ? d->executor() : sw_->executor();
}

runtime::InstanceHandle CoSimulation::create(std::string_view class_name) {
  ClassId cls = sys_->domain().find_class_id(class_name);
  if (!cls.is_valid()) {
    throw runtime::ModelError("unknown class '" + std::string(class_name) + "'");
  }
  runtime::Executor& owner = executor_of(cls);
  // Instance pools are finite: the maxInstances mark sizes the FSM bank the
  // VHDL is generated with and the pool the C is generated with, so the
  // executable mapping enforces it for every class, with the C's wording.
  const int cap = sys_->mapping_of(cls).max_instances;
  if (owner.database().live_count(cls) >= static_cast<std::size_t>(cap)) {
    throw runtime::ModelError(
        "pool of '" + std::string(class_name) + "' is full (" +
        std::to_string(cap) + " instances; raise the maxInstances mark)");
  }
  return owner.create(cls);
}

runtime::InstanceHandle CoSimulation::create_with(
    std::string_view class_name,
    const std::vector<std::pair<std::string, runtime::Value>>& attrs) {
  // Route through create() so the pool-capacity check applies.
  runtime::InstanceHandle h = create(class_name);
  runtime::Database& db = executor_of(h.cls).database();
  const xtuml::ClassDef& def = sys_->domain().cls(h.cls);
  for (const auto& [name, value] : attrs) {
    const xtuml::AttributeDef* a = def.find_attribute(name);
    if (a == nullptr) {
      throw runtime::ModelError("create_with: class '" + def.name +
                                "' has no attribute '" + name + "'");
    }
    db.set_attr(h, a->id, value);
  }
  return h;
}

void CoSimulation::inject(const runtime::InstanceHandle& target,
                          std::string_view event_name,
                          std::vector<runtime::Value> args,
                          std::uint64_t delay) {
  executor_of(target.cls).inject(target, event_name, std::move(args), delay);
}

void CoSimulation::collect_deliveries() {
  for (int tile : fabric_->ready_tiles()) {
    const int c = channel_of_tile_[static_cast<std::size_t>(tile)];
    if (c < 0) continue;  // the DRAM tile: mem::System pops its own NIC
    FabricChannel& fc = *fabric_channels_[static_cast<std::size_t>(c)];
    fc.drain_nic();
    if (fc.has_signals()) signals_held_.insert(static_cast<std::size_t>(c));
    if (fc.has_coherence()) {
      coherence_held_.insert(static_cast<std::size_t>(c));
    }
  }
  fabric_->clear_ready_tiles();
}

void CoSimulation::mem_tick(std::uint64_t cycle) {
  // mem_ only exists in fabric mode. Channels hand over their due frames
  // in channel order, the tag order the timing replay consumes.
  mem_delivered_.clear();
  coherence_held_.for_each([&](std::size_t c) {
    FabricChannel& fc = *fabric_channels_[c];
    fc.take_coherence(cycle, mem_delivered_);
    if (!fc.has_coherence()) coherence_held_.erase(c);
  });
  mem_->tick(cycle, mem_delivered_);
}

void CoSimulation::fill_inboxes(std::uint64_t end) {
  auto fill = [&](std::size_t c) {
    if (c == hw_domains_.size()) {
      sw_->fill_inbox(end);
      return;
    }
    HwDomain& hw = *hw_domains_[c];
    hw.fill_inbox(end);
    if (!hw.inbox_empty()) hw.wake(cycle_);
  };
  if (!fabric_) {
    for (std::size_t c = 0; c <= hw_domains_.size(); ++c) fill(c);
    return;
  }
  signals_held_.for_each([&](std::size_t c) {
    fill(c);
    if (!fabric_channels_[c]->has_signals()) signals_held_.erase(c);
  });
}

void CoSimulation::catch_up_quiet() {
  for (auto& hw : hw_domains_) {
    if (hw->quiet()) hw->catch_up(cycle_);
  }
}

void CoSimulation::run_window(std::uint64_t w) {
  const std::uint64_t base = cycle_;
  const std::uint64_t end = base + w;
  OBS_SPAN_AT(obs_, obs_track_, "window", base + 1);
  auto stamp = std::chrono::steady_clock::now();
  auto lap = [&stamp] {
    const auto prev = stamp;
    stamp = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stamp - prev).count();
  };

  // Window boundary, serial: every domain pulls the frames due inside the
  // coming window into its private inbox. Complete, because a frame due at
  // some cycle d <= end was sent at d - L <= base at the latest (lookahead)
  // — i.e. before this boundary — so it is already in the interconnect and
  // receive(end) sees it. Frames due beyond `end` stay queued for a later
  // boundary.
  {
    OBS_SPAN(obs_, obs_track_, "fill_inbox");
    fill_inboxes(end);
  }
  // Same completeness argument for the store log: a store issued inside
  // this window (cycle > base) becomes visible at cycle + L >= base + L >=
  // end, so publishing up to `end` here covers every read phase A can make
  // — and phase A then only reads the log, never grows it.
  if (mem_) mem_->append_visible(end);
  phase_seconds_.boundary += lap();

  // Phase A: run each awake domain w cycles ahead, concurrently. A job
  // touches only domain-local state — executor, inbox, outbox, staged
  // wire writes, its own quiet flag — never the kernel, the
  // interconnect, or another domain. The pool's run() provides the
  // happens-before edges on both sides.
  obs::ScopedSpan phase_a_span(obs_, obs_track_, "phaseA", base + 1);
  jobs_.clear();
  for (std::size_t d = 0; d < hw_domains_.size(); ++d) {
    if (!hw_domains_[d]->quiet()) jobs_.push_back(d);
  }
  jobs_.push_back(hw_domains_.size());
  // The pool rethrows the lowest-index job's error: the lowest domain's,
  // the one the serial order would have hit first.
  pool_->run(jobs_.size(), [&](std::size_t j) {
    const std::size_t d = jobs_[j];
    if (d < hw_domains_.size()) {
      hw_domains_[d]->run_window(w);
    } else {
      for (std::uint64_t k = 0; k < w; ++k) {
        sw_->run_cycle(base + 1 + k, config_.sw_steps_per_cycle,
                       config_.sw_ops_per_cycle);
      }
    }
  });
  phase_a_span.finish();
  // The memory timing replay looks only at the domains that ran (their
  // memory tags are their domain indices, see the constructor).
  if (mem_) {
    for (std::size_t d : jobs_) mem_->note_active(static_cast<int>(d));
  }
  phase_seconds_.phase_a += lap();
  OBS_SPAN_AT(obs_, obs_track_, "phaseB", base + 1);

  // Phase B: the w edges, serially: fabric tick and NIC drain, the kernel
  // edge committing the wire writes of the domains that ran (domain order),
  // outbox flushes (domain order, then software), memory timing and the
  // cycle hook. A domain that did not run is not touched: it staged
  // nothing.

  // Batch the boundary exchanges: instead of asking every domain at every
  // edge whether it has frames to send (O(domains) scans per cycle, and
  // almost all come back empty), merge the cycles that actually have
  // staged sends into one schedule. Sorting the (cycle, tag) pairs keeps
  // ties in ascending tag order = hardware domains in order, software
  // last — exactly the serial flush order, so the interconnect sees the
  // identical injection sequence.
  flush_sched_.clear();
  const std::uint32_t sw_tag = static_cast<std::uint32_t>(hw_domains_.size());
  for (std::size_t d : jobs_) {
    const auto tag = static_cast<std::uint32_t>(d);
    if (tag == sw_tag) {
      sw_->pending_send_cycles(sw_tag, flush_sched_);
    } else {
      hw_domains_[d]->pending_send_cycles(tag, flush_sched_);
    }
  }
  std::sort(flush_sched_.begin(), flush_sched_.end());
  std::size_t flush_pos = 0;

  for (std::uint64_t k = 0; k < w; ++k) {
    ++cycle_;
    if (fabric_) {
      // Frames complete only in a tick; draining right after it leaves no
      // frame in a NIC between cycles, so every window size and thread
      // count checkpoints the same bytes.
      fabric_->tick(cycle_);
      collect_deliveries();
    }
    edge_batches_.clear();
    for (std::size_t d : jobs_) {
      if (d < sw_tag) {
        edge_batches_.push_back(&hw_domains_[d]->edge_writes(k));
      }
    }
    sim_->edge(edge_batches_);
    while (flush_pos < flush_sched_.size() &&
           flush_sched_[flush_pos].first <= cycle_) {
      const std::uint32_t tag = flush_sched_[flush_pos].second;
      ++flush_pos;
      if (tag < sw_tag) {
        hw_domains_[tag]->flush_outbox_through(cycle_);
      } else {
        sw_->flush_outbox_through(cycle_);
      }
    }
    if (mem_) mem_tick(cycle_);
    if (cycle_hook_) cycle_hook_(cycle_);
  }
  phase_seconds_.phase_b += lap();
}

bool CoSimulation::quiescent() const {
  for (const auto& hw : hw_domains_) {
    if (!hw->quiet() && !hw->drained()) return false;
  }
  if (!sw_->drained()) return false;
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return bus_ ? bus_->empty() : fabric_->idle();
}

std::uint64_t CoSimulation::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles && !quiescent()) {
    const std::uint64_t w = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(window_), max_cycles - n);
    run_window(w);
    n += w;
  }
  catch_up_quiet();
  return n;
}

void CoSimulation::run_cycles(std::uint64_t cycles) {
  std::uint64_t done = 0;
  while (done < cycles) {
    const std::uint64_t w = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(window_), cycles - done);
    run_window(w);
    done += w;
  }
  catch_up_quiet();
}

template <class Io, class Self>
void CoSimulation::layout(Io& io, Self& self) {
  // The interconnect mode is structural, but one byte buys an immediate
  // diagnostic when a bus snapshot meets a fabric elaboration.
  io.expect(static_cast<std::uint8_t>(self.bus_ ? 0 : 1),
            "co-simulation snapshot interconnect mismatch (bus vs fabric)");
  io.state(*self.sim_);
  if (self.bus_) {
    io.state(*self.bus_);
  } else {
    io.state(*self.fabric_);
  }
  io.expect(std::uint64_t{self.channels_.size()},
            "co-simulation snapshot channel count mismatch");
  for (const auto& ch : self.channels_) io.state(*ch);
  if constexpr (Io::kLoading) {
    self.signals_held_.clear();
    self.coherence_held_.clear();
    for (std::size_t c = 0; c < self.fabric_channels_.size(); ++c) {
      if (self.fabric_channels_[c]->has_signals()) {
        self.signals_held_.insert(c);
      }
      if (self.fabric_channels_[c]->has_coherence()) {
        self.coherence_held_.insert(c);
      }
    }
    // A version-4 checkpoint written before the per-tick drain may still
    // hold reassembled frames in a NIC; move them where the next cycle
    // reads them, as the tick that completed them would have.
    if (self.fabric_) self.collect_deliveries();
  }
  io.expect(std::uint64_t{self.hw_domains_.size()},
            "co-simulation snapshot domain count mismatch (same partition "
            "required)");
  for (const auto& hw : self.hw_domains_) io.state(*hw);
  io.state(*self.sw_);
  io.u64(self.cycle_);
  // Memory hierarchy presence is structural (it follows from the marks),
  // so a bare flag suffices to catch mark drift between save and restore.
  io.expect(static_cast<std::uint8_t>(self.mem_ ? 1 : 0),
            "co-simulation snapshot memory-hierarchy mismatch (same marks "
            "required)");
  if (self.mem_) {
    io.state(*self.mem_);
    if constexpr (Io::kLoading) self.mem_->check_restored(self.cycle_);
  }
}

void CoSimulation::save_state(snap::Writer& w) const { layout(w, *this); }

void CoSimulation::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::cosim
