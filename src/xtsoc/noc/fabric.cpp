#include "xtsoc/noc/fabric.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "xtsoc/fault/fault.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::noc {

void LatencyHistogram::add(std::uint64_t latency) {
  int bucket = 0;
  for (std::uint64_t v = latency; v > 1 && bucket < kBuckets - 1; v >>= 1) {
    ++bucket;
  }
  ++buckets[bucket];
  total += latency;
  if (count == 0 || latency < min) min = latency;
  if (latency > max) max = latency;
  ++count;
}

Fabric::Fabric(FabricConfig config) : config_(config), obs_(config.obs) {
  if (obs_ != nullptr) {
    obs_track_ = obs_->track("noc");
  }
  if (config_.width < 1 || config_.height < 1) {
    throw FabricError("mesh dimensions must be at least 1x1");
  }
  if (config_.width > 64 || config_.height > 64) {
    throw FabricError("mesh dimensions capped at 64x64");
  }
  if (config_.topology == TopologyKind::kTorus &&
      (config_.width < 2 || config_.height < 2)) {
    throw FabricError("torus topology needs both dimensions >= 2 (got " +
                      std::to_string(config_.width) + "x" +
                      std::to_string(config_.height) +
                      "); a single wrapped row is a ring");
  }
  if (config_.topology == TopologyKind::kRing && config_.height != 1) {
    throw FabricError("ring topology is one row: height must be 1 (got " +
                      std::to_string(config_.height) + ")");
  }
  if (config_.link_latency < 1) {
    throw FabricError("link latency must be at least 1 cycle");
  }
  if (config_.flit_payload_bytes < 1) {
    throw FabricError("flit payload width must be at least 1 byte");
  }
  if (config_.fifo_depth < 1) {
    throw FabricError("input FIFO depth must be at least 1");
  }
  if (config_.routing == RoutePolicy::kAdaptive && config_.fault != nullptr) {
    const fault::FaultSpec& fs = config_.fault->spec();
    if (fs.flit_drop > 0.0 || fs.flit_corrupt > 0.0 || fs.link_down > 0.0) {
      throw FabricError(
          "adaptive routing cannot be combined with NoC fault injection: "
          "the retransmit detour presumes dimension-order primary/fallback "
          "paths");
    }
  }
  topo_ = std::make_unique<Topology>(config_.topology, config_.width,
                                     config_.height);

  const int n = tiles();
  routers_.reserve(static_cast<std::size_t>(n));
  nics_.resize(static_cast<std::size_t>(n));
  link_index_.assign(static_cast<std::size_t>(n) * kPortCount, -1);
  for (int t = 0; t < n; ++t) {
    routers_.emplace_back(t % config_.width, t / config_.width,
                          config_.fifo_depth, topo_.get(), t, config_.routing,
                          &pool_);
    nics_[static_cast<std::size_t>(t)].inject_credits = config_.fifo_depth;
  }
  for (int t = 0; t < n; ++t) {
    for (Port d : {kNorth, kEast, kSouth, kWest}) {
      if (neighbor_of(t, d) < 0) continue;
      // Credits toward the neighbour's input FIFO on the far side.
      routers_[static_cast<std::size_t>(t)].set_credits(d, config_.fifo_depth);
      link_index_[static_cast<std::size_t>(t) * kPortCount + d] =
          static_cast<int>(links_.size());
      links_.push_back(LinkStats{t, d, 0});
    }
  }

  fault_ = config_.fault;
  if (fault_ != nullptr) {
    const fault::FaultSpec& fs = fault_->spec();
    // The resilient transport arms only when a NoC fault can actually
    // happen; a zero-rate plan (or a bus-only one) leaves the fabric
    // byte-identical to a fault-free build.
    fault_armed_ =
        fs.flit_drop > 0.0 || fs.flit_corrupt > 0.0 || fs.link_down > 0.0;
  }
  // Sized whether or not a plan is attached, so the fabric's snapshot
  // layout is the same either way (a faulty snapshot restores into a
  // fault-free fabric and vice versa); only fault_armed_ paths read it.
  link_down_until_.assign(links_.size(), 0);
  in_flight_ = FixedRing<Arrival>(
      links_.size() * static_cast<std::size_t>(config_.link_latency));
  busy_routers_.resize(static_cast<std::size_t>(n));
  sending_nics_.resize(static_cast<std::size_t>(n));
}

std::uint64_t Fabric::retry_deadline(std::uint64_t cycle, int hops,
                                     std::size_t nflits, std::size_t backlog,
                                     int attempts) const {
  // Round trip (flits out, ack back) at 4x slack, plus the flits already
  // queued ahead of this attempt at the NIC, plus a flat margin. Doubled
  // per attempt so a congested network gets exponential breathing room.
  // The flat margin matters more than it looks: a spurious retransmission
  // is logically harmless (the receiver dedups by frame id) but it ADDS
  // traffic to the congestion that delayed the ack in the first place —
  // an undersized margin can feed that loop into congestion collapse on
  // busy meshes. 64 cycles absorbs realistic queueing; short test runs
  // must simply run long enough for first deadlines to pass.
  const std::uint64_t base =
      4ULL * (static_cast<std::uint64_t>(hops) *
                  static_cast<std::uint64_t>(config_.link_latency) +
              nflits + backlog) +
      64;
  return cycle + (base << (attempts > 6 ? 6 : attempts));
}

void Fabric::check_tile(int tile, const char* what) const {
  if (tile < 0 || tile >= tiles()) {
    throw FabricError(std::string(what) + " tile " + std::to_string(tile) +
                      " outside the " + std::to_string(config_.width) + "x" +
                      std::to_string(config_.height) + " mesh");
  }
}

void Fabric::send_frame(int src, int dst, std::uint32_t opcode,
                        std::vector<std::uint8_t> payload,
                        std::uint64_t current_cycle,
                        std::uint64_t extra_delay) {
  check_tile(src, "source");
  check_tile(dst, "destination");
  if (src == dst) {
    throw FabricError("same-tile send: tile " + std::to_string(src) +
                      " talking to itself must not use the network");
  }

  Nic& nic = nics_[static_cast<std::size_t>(src)];
  ++frames_sent_;
  payload_bytes_ += payload.size();

  PendingTx tx;
  tx.dst = dst;
  tx.opcode = opcode;
  tx.payload = std::move(payload);
  tx.send_cycle = current_cycle;
  tx.min_due = current_cycle + extra_delay;

  if (!fault_armed_) {
    // Fault-free path: one attempt, no transport header, fire and forget.
    enqueue_attempt(src, dst, tx, RouteMode::kPrimary, false);
    return;
  }

  tx.frame_id = nic.next_frame_id++;
  tx.crc = fault::crc32(tx.payload.data(), tx.payload.size());
  tx.attempts = 1;
  const std::size_t chunk =
      static_cast<std::size_t>(config_.flit_payload_bytes);
  const std::size_t nflits =
      tx.payload.empty() ? 1 : (tx.payload.size() + chunk - 1) / chunk;
  tx.deadline = retry_deadline(current_cycle, hop_distance(src, dst), nflits,
                               nic.tx.size(), 0);
  enqueue_attempt(src, dst, tx, RouteMode::kPrimary, true);
  nic.retry_at.emplace(tx.deadline, tx.frame_id);
  nic.pending.emplace(tx.frame_id, std::move(tx));
}

void Fabric::enqueue_attempt(int src, int dst, PendingTx& tx,
                             RouteMode route_mode, bool keep_payload) {
  Nic& nic = nics_[static_cast<std::size_t>(src)];
  const std::size_t chunk =
      static_cast<std::size_t>(config_.flit_payload_bytes);
  const std::size_t nflits =
      tx.payload.empty() ? 1 : (tx.payload.size() + chunk - 1) / chunk;

  Flit proto;
  proto.src_x = static_cast<std::uint8_t>(src % config_.width);
  proto.src_y = static_cast<std::uint8_t>(src / config_.width);
  proto.dst_x = static_cast<std::uint8_t>(dst % config_.width);
  proto.dst_y = static_cast<std::uint8_t>(dst / config_.width);
  proto.seq = nic.next_seq++;
  proto.opcode = tx.opcode;
  proto.frame_bytes = static_cast<std::uint32_t>(tx.payload.size());
  proto.frame_id = tx.frame_id;
  proto.crc = tx.crc;
  proto.route_mode = route_mode;
  proto.send_cycle = tx.send_cycle;
  proto.min_due = tx.min_due;

  for (std::size_t i = 0; i < nflits; ++i) {
    Flit f = proto;
    if (nflits == 1) {
      f.kind = FlitKind::kHeadTail;
    } else if (i == 0) {
      f.kind = FlitKind::kHead;
    } else if (i + 1 == nflits) {
      f.kind = FlitKind::kTail;
    } else {
      f.kind = FlitKind::kBody;
    }
    const std::size_t off = i * chunk;
    const std::size_t len = std::min(chunk, tx.payload.size() - off);
    if (nflits == 1 && !keep_payload) {
      f.payload = std::move(tx.payload);
    } else if (!tx.payload.empty()) {
      f.payload.assign(
          tx.payload.begin() + static_cast<std::ptrdiff_t>(off),
          tx.payload.begin() + static_cast<std::ptrdiff_t>(off + len));
    }
    nic.tx.push(std::move(f));
  }
  sending_nics_.insert(static_cast<std::size_t>(src));
}

void Fabric::complete_frame(int tile, int src_tile, std::uint32_t frame_id,
                            std::uint32_t crc, bool tainted,
                            std::uint32_t opcode,
                            std::vector<std::uint8_t> payload,
                            std::uint64_t send_cycle, std::uint64_t min_due,
                            std::uint64_t cycle) {
  Nic& nic = nics_[static_cast<std::size_t>(tile)];
  if (fault_armed_) {
    if (fault::crc32(payload.data(), payload.size()) != crc) {
      // Corrupted in transit: discard silently. No ack goes back, so the
      // source's retry deadline re-sends the frame.
      ++fstats_.crc_rejects;
      return;
    }
    if (tainted) ++fstats_.tainted_delivered;  // CRC blind spot; tests pin 0
    // Ack every intact arrival — a duplicate means the first ack was still
    // in flight when the source's deadline fired, so it needs another.
    acks_.push_back(
        Ack{cycle +
                static_cast<std::uint64_t>(hop_distance(tile, src_tile)) *
                    static_cast<std::uint64_t>(config_.link_latency) +
                1,
            src_tile, frame_id});
    if (!nic.delivered.insert({src_tile, frame_id}).second) {
      ++fstats_.duplicates_dropped;
      return;
    }
  }
  Delivery d;
  d.opcode = opcode;
  d.payload = std::move(payload);
  d.src_tile = src_tile;
  d.send_cycle = send_cycle;
  d.arrive_cycle = cycle;
  d.due_cycle = std::max(cycle, min_due);
  latency_.add(cycle - send_cycle);
  ++frames_delivered_;
  if (obs_ != nullptr && obs_->tracing()) {
    obs_->record_instant(obs_track_, "deliver", obs_->now_ns(), cycle);
  }
  nic.ready.push_back(std::move(d));
  if (!nic.listed) {
    nic.listed = true;
    ready_tiles_.push_back(tile);
  }
}

void Fabric::clear_ready_tiles() {
  for (int t : ready_tiles_) nics_[static_cast<std::size_t>(t)].listed = false;
  ready_tiles_.clear();
}

void Fabric::eject(int tile, Flit flit, std::uint64_t cycle) {
  Nic& nic = nics_[static_cast<std::size_t>(tile)];
  const int src_tile =
      tile_index(static_cast<int>(flit.src_x), static_cast<int>(flit.src_y));
  const auto key = std::make_pair(src_tile, flit.seq);

  if (flit.kind == FlitKind::kHeadTail) {
    complete_frame(tile, src_tile, flit.frame_id, flit.crc, flit.tainted,
                   flit.opcode, std::move(flit.payload), flit.send_cycle,
                   flit.min_due, cycle);
    return;
  }

  if (flit.opens_frame()) {
    Reassembly& r = nic.partial[key];
    r.opcode = flit.opcode;
    r.frame_bytes = flit.frame_bytes;
    r.frame_id = flit.frame_id;
    r.crc = flit.crc;
    r.tainted = flit.tainted;
    r.payload = std::move(flit.payload);
    return;
  }

  auto it = nic.partial.find(key);
  if (it == nic.partial.end()) {
    if (fault_armed_) {
      // The rest of this attempt died on a link and its reassembly was
      // purged; stragglers are expected, not a protocol violation.
      ++fstats_.orphan_flits;
      return;
    }
    throw FabricError("flit of an unopened frame reached tile " +
                      std::to_string(tile));
  }
  Reassembly& r = it->second;
  r.payload.insert(r.payload.end(), flit.payload.begin(), flit.payload.end());
  r.tainted = r.tainted || flit.tainted;
  if (flit.closes_frame()) {
    if (r.payload.size() != r.frame_bytes) {
      if (fault_armed_) {
        ++fstats_.crc_rejects;
        nic.partial.erase(it);
        return;
      }
      throw FabricError("frame reassembly size mismatch at tile " +
                        std::to_string(tile));
    }
    complete_frame(tile, src_tile, r.frame_id, r.crc, r.tainted, r.opcode,
                   std::move(r.payload), flit.send_cycle, flit.min_due, cycle);
    nic.partial.erase(it);
  }
}

void Fabric::fault_cycle(std::uint64_t cycle) {
  // Acks land: each one retires its frame at the source NIC. Late acks
  // (frame already re-sent or reported lost) are counted and ignored.
  if (!acks_.empty()) {
    std::vector<Ack> keep;
    keep.reserve(acks_.size());
    for (const Ack& a : acks_) {
      if (a.due > cycle) {
        keep.push_back(a);
        continue;
      }
      ++fstats_.acks_delivered;
      nics_[static_cast<std::size_t>(a.to_tile)].pending.erase(a.frame_id);
    }
    acks_.swap(keep);
  }

  // Retry deadlines, popped from each NIC's deadline-ordered schedule in
  // tile then (deadline, frame_id) order — a serial scan, so the
  // retransmission schedule is a pure function of simulation state. The
  // schedule is lazily invalidated: a popped entry whose frame was acked,
  // or whose deadline moved, no longer matches `pending` and is discarded.
  // This keeps a cycle's cost proportional to the frames actually due,
  // not to every unacked frame in flight.
  const int budget = fault_->spec().retry_budget;
  for (int t = 0; t < tiles(); ++t) {
    Nic& nic = nics_[static_cast<std::size_t>(t)];
    while (!nic.retry_at.empty() && nic.retry_at.begin()->first <= cycle) {
      const std::uint64_t scheduled = nic.retry_at.begin()->first;
      const std::uint32_t frame_id = nic.retry_at.begin()->second;
      nic.retry_at.erase(nic.retry_at.begin());
      auto it = nic.pending.find(frame_id);
      if (it == nic.pending.end() || it->second.deadline != scheduled) {
        continue;  // stale: acked or rescheduled since this entry was queued
      }
      PendingTx& tx = it->second;
      if (tx.attempts > budget) {
        // Budget exhausted: report the loss and stop waiting. The campaign
        // sees a dropped message; nothing ever blocks on it.
        ++fstats_.frames_lost;
        nic.pending.erase(it);
        continue;
      }
      // Alternate primary and fallback dimension orders per attempt, so a
      // retry does not march straight back into a downed link on the
      // primary path.
      const RouteMode mode =
          (tx.attempts & 1) ? RouteMode::kFallback : RouteMode::kPrimary;
      ++fstats_.retransmissions;
      const std::size_t chunk =
          static_cast<std::size_t>(config_.flit_payload_bytes);
      const std::size_t nflits =
          tx.payload.empty() ? 1 : (tx.payload.size() + chunk - 1) / chunk;
      tx.deadline = retry_deadline(cycle, hop_distance(t, tx.dst), nflits,
                                   nic.tx.size(), tx.attempts);
      nic.retry_at.emplace(tx.deadline, frame_id);
      enqueue_attempt(t, tx.dst, tx, mode, true);
      ++tx.attempts;
    }
  }

  // Link outages: one draw per up link per cycle (rate-gated inside roll).
  if (fault_->spec().link_down > 0.0) {
    for (std::size_t li = 0; li < links_.size(); ++li) {
      if (link_down_until_[li] > cycle) continue;
      const std::uint32_t n =
          fault_->link_outage(static_cast<std::uint32_t>(li), cycle);
      if (n > 0) {
        link_down_until_[li] = cycle + n;
        ++fstats_.link_down_events;
      }
    }
  }
}

void Fabric::tick(std::uint64_t cycle) {
  ++cycles_;

  // 0. Fault bookkeeping (acks, retry deadlines, link outages). tick() is
  //    called serially at every threads/window setting, so every PRNG draw
  //    below happens in the same order in every configuration.
  if (fault_armed_) fault_cycle(cycle);

  // 1. Link arrivals land in their reserved input-FIFO slots.
  while (!in_flight_.empty() && in_flight_.front().cycle <= cycle) {
    const Arrival& a = in_flight_.front();
    routers_[static_cast<std::size_t>(a.router)].accept(a.port, a.flit);
    busy_routers_.insert(static_cast<std::size_t>(a.router));
    in_flight_.pop();
  }

  // 2. NIC injection: one flit per cycle onto the local port, credit
  //    permitting (this serialization is the injection bottleneck that
  //    makes hot tiles measurable).
  sending_nics_.for_each([this](std::size_t t) {
    Nic& nic = nics_[t];
    if (nic.inject_credits <= 0) return;
    routers_[t].accept(kLocal, pool_.put(std::move(nic.tx.front())));
    busy_routers_.insert(t);
    nic.tx.pop();
    if (nic.tx.empty()) sending_nics_.erase(t);
    --nic.inject_credits;
    ++flits_injected_;
  });

  // 3. Route and arbitrate. Decisions read only cycle-start state (own
  //    FIFOs and credit counters); freed buffer slots are returned as
  //    credits only after every router has moved, so the order routers are
  //    visited in cannot change the outcome.
  std::vector<CreditReturn>& returns = credit_returns_;
  returns.clear();
  //    Only routers holding flits are visited, in tile order: with every
  //    input FIFO empty, arbitrate() can only return -1, no stall is
  //    possible, and note_occupancy() is a no-op (occupancy 0 never raises
  //    a high-water mark). A router's FIFOs are mutated only by its own
  //    visit (arrivals land in step 1, credits return in step 4), so noting
  //    the occupancy here, before its own pops, reads cycle-start state.
  busy_routers_.for_each([&](std::size_t ti) {
    const int t = static_cast<int>(ti);
    Router& r = routers_[ti];
    r.note_occupancy();
    // Only an output some head requests at the start of the visit can find
    // a winner: an input whose head moves on is served for the cycle, so
    // the flit behind it cannot compete.
    const unsigned requested = r.requested_outputs();
    unsigned served = 0;  // inputs that already forwarded a flit this cycle
    for (Port out : {kLocal, kNorth, kEast, kSouth, kWest}) {
      if ((requested & (1u << out)) == 0) continue;
      const int winner = r.arbitrate(out, served);
      if (winner < 0) continue;
      if (out == kLocal) {
        const FlitRef f = r.take(static_cast<Port>(winner));
        r.advance_rr(out, winner);
        served |= 1u << winner;
        ++r.stats().flits_ejected;
        returns.push_back({t, static_cast<Port>(winner)});
        eject(t, pool_.take(f), cycle);
        continue;
      }
      if (r.credits(out) <= 0) {  // backpressure: stall, keep order
        ++r.stats().credit_stalls;
        continue;
      }
      const int next = neighbor_of(t, out);
      const int li =
          link_index_[static_cast<std::size_t>(t) * kPortCount + out];
      if (fault_armed_) {
        const bool down =
            link_down_until_[static_cast<std::size_t>(li)] > cycle;
        if (down ||
            fault_->flit_drop(static_cast<std::uint32_t>(li), cycle)) {
          // The flit dies entering the link: its input slot frees (credit
          // back upstream) but nothing is charged downstream — the credit
          // books stay balanced. Any reassembly of this attempt at the
          // destination is purged; stragglers become counted orphans and
          // the source's retry deadline takes it from here.
          const Flit f = pool_.take(r.take(static_cast<Port>(winner)));
          r.advance_rr(out, winner);
          served |= 1u << winner;
          returns.push_back({t, static_cast<Port>(winner)});
          if (down) {
            ++fstats_.link_down_drops;
          } else {
            ++fstats_.flits_dropped;
          }
          const int dst = tile_index(static_cast<int>(f.dst_x),
                                     static_cast<int>(f.dst_y));
          const int src_tile = tile_index(static_cast<int>(f.src_x),
                                          static_cast<int>(f.src_y));
          nics_[static_cast<std::size_t>(dst)].partial.erase(
              {src_tile, f.seq});
          continue;
        }
      }
      // Dimension-order routing on validated destinations never picks a
      // port without a link (the topology returned it as productive).
      const FlitRef f = r.take(static_cast<Port>(winner));
      r.frame_forwarded(f);  // retires the adaptive pin on the tail
      r.take_credit(out);
      r.advance_rr(out, winner);
      served |= 1u << winner;
      ++r.stats().flits_routed;
      ++links_[static_cast<std::size_t>(li)].flits;
      returns.push_back({t, static_cast<Port>(winner)});
      if (fault_armed_ && !pool_[f].payload.empty() &&
          fault_->flit_corrupt(static_cast<std::uint32_t>(li), cycle)) {
        // Flip one payload bit; headers are modeled as ECC-protected. The
        // taint flag is simulation metadata proving the CRC catches this.
        Flit& hit = pool_[f];
        const std::uint32_t bit = fault_->pick(
            static_cast<std::uint32_t>(li),
            static_cast<std::uint32_t>(hit.payload.size() * 8));
        hit.payload[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
        hit.tainted = true;
        ++fstats_.flits_corrupted;
      }
      if (in_flight_.full()) {
        throw FabricError("more flits on the links than they can carry");
      }
      in_flight_.push(
          Arrival{cycle + static_cast<std::uint64_t>(config_.link_latency),
                  next, opposite(out), f});
    }
    if (r.buffers_empty()) busy_routers_.erase(ti);
  });

  // 4. Freed slots become credits: at the upstream router for mesh ports,
  //    at the NIC for the local injection port.
  for (const CreditReturn& cr : returns) {
    if (cr.input == kLocal) {
      ++nics_[static_cast<std::size_t>(cr.router)].inject_credits;
    } else {
      const int upstream = neighbor_of(cr.router, cr.input);
      routers_[static_cast<std::size_t>(upstream)].return_credit(
          opposite(cr.input));
    }
  }

  // Sample link occupancy (flits on the wire) as a counter series — only
  // on change, so an idle network adds no events.
  if (obs_ != nullptr && obs_->tracing() && in_flight_.size() != last_in_flight_) {
    last_in_flight_ = in_flight_.size();
    obs_->record_value(obs_track_, "flits_in_flight", obs_->now_ns(),
                       static_cast<double>(last_in_flight_));
  }
}

void Fabric::pop_due(int tile, std::uint64_t cycle,
                     std::vector<Delivery>& out) {
  check_tile(tile, "pop_due");
  Nic& nic = nics_[static_cast<std::size_t>(tile)];
  if (nic.ready.empty()) return;  // the common case: nothing arrived
  // Deliveries may carry heterogeneous generate-delays, so scan everything
  // but keep the survivors' relative order (same contract as Bus::pop_due),
  // compacting them in place.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < nic.ready.size(); ++i) {
    if (nic.ready[i].due_cycle <= cycle) {
      out.push_back(std::move(nic.ready[i]));
    } else {
      if (kept != i) nic.ready[kept] = std::move(nic.ready[i]);
      ++kept;
    }
  }
  nic.ready.resize(kept);
}

bool Fabric::idle() const {
  if (!in_flight_.empty() || !busy_routers_.empty() || !sending_nics_.empty()) {
    return false;
  }
  for (const Nic& n : nics_) {
    if (!n.ready.empty() || !n.partial.empty()) return false;
  }
  if (fault_armed_) {
    // Unacked frames and in-flight acks keep the fabric awake: either an
    // ack retires them or the retry budget reports them lost — bounded
    // both ways, so quiescence is still guaranteed.
    if (!acks_.empty()) return false;
    for (const Nic& n : nics_) {
      if (!n.pending.empty()) return false;
    }
  }
  return true;
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.width = config_.width;
  s.height = config_.height;
  s.topology = config_.topology;
  s.routing = config_.routing;
  s.cycles = cycles_;
  s.frames_sent = frames_sent_;
  s.frames_delivered = frames_delivered_;
  s.flits_injected = flits_injected_;
  s.payload_bytes = payload_bytes_;
  s.routers.reserve(routers_.size());
  for (const Router& r : routers_) s.routers.push_back(r.stats());
  s.links = links_;
  s.latency = latency_;
  return s;
}

std::string FabricStats::to_table() const {
  std::ostringstream os;
  os << "noc: " << width << "x" << height << " " << to_string(topology);
  // The non-default policy is named; the mesh+XY default keeps the exact
  // pre-topology wording (reports are byte-compared across versions).
  if (routing != RoutePolicy::kXY) os << " [" << to_string(routing) << "]";
  os << ", cycles=" << cycles
     << " frames=" << frames_sent << "/" << frames_delivered
     << " (sent/delivered) flits=" << flits_injected
     << " payload_bytes=" << payload_bytes << '\n';
  os << "frame latency (cycles): count=" << latency.count << " mean="
     << std::fixed << std::setprecision(2) << latency.mean()
     << " min=" << latency.min << " max=" << latency.max << '\n';
  if (latency.count > 0) {
    os << "  histogram:";
    std::uint64_t lo = 1;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i, lo <<= 1) {
      if (latency.buckets[static_cast<std::size_t>(i)] == 0) continue;
      os << " [" << lo << "," << (lo << 1)
         << "):" << latency.buckets[static_cast<std::size_t>(i)];
    }
    os << '\n';
  }
  os << std::left << std::setw(12) << "router" << std::right << std::setw(10)
     << "routed" << std::setw(10) << "ejected" << std::setw(10) << "stalls"
     << std::setw(12) << "buf_peak" << '\n';
  for (std::size_t t = 0; t < routers.size(); ++t) {
    std::ostringstream tile;
    tile << "(" << (t % static_cast<std::size_t>(width)) << ","
         << (t / static_cast<std::size_t>(width)) << ")";
    os << std::left << std::setw(12) << tile.str() << std::right
       << std::setw(10) << routers[t].flits_routed << std::setw(10)
       << routers[t].flits_ejected << std::setw(10)
       << routers[t].credit_stalls << std::setw(12)
       << routers[t].buffer_high_water << '\n';
  }
  bool any_link = false;
  for (const LinkStats& l : links) {
    if (l.flits == 0) continue;
    if (!any_link) {
      os << std::left << std::setw(16) << "link" << std::right << std::setw(10)
         << "flits" << std::setw(12) << "util" << '\n';
      any_link = true;
    }
    std::ostringstream name;
    name << "(" << l.from_tile % width << "," << l.from_tile / width << ")->"
         << to_string(l.dir);
    os << std::left << std::setw(16) << name.str() << std::right
       << std::setw(10) << l.flits << std::setw(12) << std::fixed
       << std::setprecision(3) << link_utilization(l) << '\n';
  }
  return os.str();
}

template <class Io, class F>
void flit_layout(Io& io, F& f) {
  io.u8(f.kind);
  io.u8(f.src_x);
  io.u8(f.src_y);
  io.u8(f.dst_x);
  io.u8(f.dst_y);
  io.u32(f.seq);
  io.u32(f.opcode);
  io.u32(f.frame_bytes);
  io.u32(f.frame_id);
  io.u32(f.crc);
  io.u8(f.route_mode);
  io.blob(f.payload);
  io.u64(f.send_cycle);
  io.u64(f.min_due);
  io.boolean(f.tainted);
}

template void flit_layout(snap::Writer&, const Flit&);
template void flit_layout(snap::Reader&, Flit&);

void save_flit(snap::Writer& w, const Flit& f) { flit_layout(w, f); }

template <class Io, class Self>
void Fabric::layout(Io& io, Self& self) {
  constexpr bool kLoading = Io::kLoading;
  const FabricConfig& cfg = self.config_;
  // The routers and links below refill the pool as they load.
  if constexpr (kLoading) self.pool_.clear();
  // Structural shape guard (snapshot v2): the topology kind and routing
  // policy a checkpoint was taken under. Restoring into a fabric of a
  // different shape would misread every buffered route decision.
  io.expect(static_cast<std::uint8_t>(cfg.topology),
            "fabric snapshot topology kind mismatch");
  io.expect(static_cast<std::uint8_t>(cfg.routing),
            "fabric snapshot routing policy mismatch");
  io.expect(std::uint64_t{self.routers_.size()},
            "fabric snapshot router count mismatch");
  for (auto& rt : self.routers_) io.state(rt);
  io.expect(std::uint64_t{self.nics_.size()},
            "fabric snapshot NIC count mismatch");
  // Shortest element encodings, the sizes passed to Reader::count.
  constexpr std::size_t kPartialBytes = 4 + 4 + 4 * 4 + 1 + 8;
  constexpr std::size_t kDeliveryBytes = 4 + 8 + 4 + 3 * 8;
  constexpr std::size_t kPendingBytes = 5 * 4 + 8 + 3 * 8 + 4;
  const auto tile = [&](const char* what, int t) {
    if (t < 0 || t >= self.tiles()) {
      throw snap::SnapError("fabric snapshot holds " + std::string(what) +
                            " tile " + std::to_string(t) + " outside the " +
                            std::to_string(cfg.width) + "x" +
                            std::to_string(cfg.height) + " network");
    }
  };
  const auto flit = [&](auto& f) {
    flit_layout(io, f);
    if constexpr (kLoading) check_restored_flit(f, *self.topo_);
  };
  for (auto& n : self.nics_) {
    const std::size_t queued = io.count(n.tx.size(), kFlitBytes);
    if constexpr (kLoading) n.tx.clear();
    for (std::size_t i = 0; i < queued; ++i) {
      if constexpr (kLoading) {
        Flit f;
        flit(f);
        n.tx.push(std::move(f));
      } else {
        flit(n.tx.at(i));
      }
    }
    io.u32(n.inject_credits);
    if constexpr (kLoading) {
      const auto credits = static_cast<std::uint32_t>(n.inject_credits);
      if (credits > static_cast<std::uint32_t>(cfg.fifo_depth)) {
        throw snap::SnapError(
            "NIC snapshot holds " + std::to_string(credits) +
            " inject credits, outside [0, fifo_depth " +
            std::to_string(cfg.fifo_depth) + "]");
      }
    }
    io.map(n.partial, kPartialBytes, [&](auto& key, auto& re) {
      io.u32(key.first);
      io.u32(key.second);
      io.u32(re.opcode);
      io.u32(re.frame_bytes);
      io.u32(re.frame_id);
      io.u32(re.crc);
      io.boolean(re.tainted);
      io.blob(re.payload);
    });
    io.seq(n.ready, kDeliveryBytes, [&](auto& d) {
      io.u32(d.opcode);
      io.blob(d.payload);
      io.u32(d.src_tile);
      io.u64(d.send_cycle);
      io.u64(d.arrive_cycle);
      io.u64(d.due_cycle);
    });
    io.u32(n.next_seq);
    io.map(n.pending, kPendingBytes, [&](auto& id, auto& tx) {
      io.u32(id);
      io.u32(tx.dst);
      io.u32(tx.frame_id);
      io.u32(tx.opcode);
      io.u32(tx.crc);
      io.blob(tx.payload);
      io.u64(tx.send_cycle);
      io.u64(tx.min_due);
      io.u64(tx.deadline);
      io.u32(tx.attempts);
      if constexpr (kLoading) {
        tile("a pending frame to", tx.dst);
        if (tx.attempts < 1) {
          throw snap::SnapError("fabric snapshot holds a pending frame at "
                                "attempt " + std::to_string(tx.attempts));
        }
      }
    });
    io.map(n.retry_at, 8 + 4, [&](auto& deadline, auto& id) {
      io.u64(deadline);
      io.u32(id);
    });
    io.seq(n.delivered, 4 + 4, [&](auto& key) {
      io.u32(key.first);
      io.u32(key.second);
    });
    io.u32(n.next_frame_id);
  }
  // The flits on the links, in due order. A link carries at most one flit
  // per cycle, so the ring's capacity bounds a sane count.
  const std::size_t on_links =
      io.count(self.in_flight_.size(), 8 + 4 + 1 + kFlitBytes);
  if constexpr (kLoading) {
    if (on_links > self.in_flight_.capacity()) {
      throw snap::SnapError(
          "fabric snapshot holds " + std::to_string(on_links) +
          " flits on the links, more than its " +
          std::to_string(self.links_.size()) + " links carry in " +
          std::to_string(cfg.link_latency) + " cycles");
    }
    self.in_flight_.clear();
  }
  const auto arrival = [&](auto& a) {
    io.u64(a.cycle);
    io.u32(a.router);
    io.u8(a.port);
    if constexpr (kLoading) {
      if (a.router < 0 || a.router >= self.tiles() || a.port <= kLocal ||
          a.port >= kPortCount || self.neighbor_of(a.router, a.port) < 0) {
        throw snap::SnapError(
            "fabric snapshot holds a flit on a link into router " +
            std::to_string(a.router) + " port " +
            std::to_string(static_cast<int>(a.port)) +
            ", which has no such link");
      }
    }
    if constexpr (kLoading) {
      Flit f;
      flit(f);
      a.flit = self.pool_.put(std::move(f));
    } else {
      flit(self.pool_[a.flit]);
    }
  };
  for (std::size_t i = 0; i < on_links; ++i) {
    if constexpr (kLoading) {
      Arrival a;
      arrival(a);
      self.in_flight_.push(std::move(a));
    } else {
      arrival(self.in_flight_.at(i));
    }
  }
  io.expect(std::uint64_t{self.links_.size()},
            "fabric snapshot link count mismatch");
  for (auto& l : self.links_) io.u64(l.flits);
  io.seq(self.acks_, 8 + 4 + 4, [&](auto& a) {
    io.u64(a.due);
    io.u32(a.to_tile);
    io.u32(a.frame_id);
    if constexpr (kLoading) tile("an ack to", a.to_tile);
  });
  io.expect(std::uint64_t{self.link_down_until_.size()},
            "fabric snapshot link count mismatch");
  for (auto& until : self.link_down_until_) io.u64(until);
  auto& fs = self.fstats_;
  for (auto* c : {&fs.flits_dropped, &fs.flits_corrupted,
                  &fs.link_down_events, &fs.link_down_drops, &fs.crc_rejects,
                  &fs.orphan_flits, &fs.retransmissions,
                  &fs.duplicates_dropped, &fs.acks_delivered, &fs.frames_lost,
                  &fs.tainted_delivered, &self.cycles_, &self.frames_sent_,
                  &self.frames_delivered_, &self.flits_injected_,
                  &self.payload_bytes_}) {
    io.u64(*c);
  }
  for (auto& b : self.latency_.buckets) io.u64(b);
  io.u64(self.latency_.count);
  io.u64(self.latency_.total);
  io.u64(self.latency_.min);
  io.u64(self.latency_.max);
}

void Fabric::save_state(snap::Writer& w) const { layout(w, *this); }

void Fabric::load_state(snap::Reader& r) {
  layout(r, *this);
  // Derived state: the tiles holding deliveries, the routers holding flits
  // and the NICs with flits to inject.
  ready_tiles_.clear();
  busy_routers_.clear();
  sending_nics_.clear();
  for (std::size_t t = 0; t < routers_.size(); ++t) {
    Nic& n = nics_[t];
    n.listed = !n.ready.empty();
    if (n.listed) ready_tiles_.push_back(static_cast<int>(t));
    if (!routers_[t].buffers_empty()) busy_routers_.insert(t);
    if (!n.tx.empty()) sending_nics_.insert(t);
  }
  last_in_flight_ = in_flight_.size();
}

}  // namespace xtsoc::noc
