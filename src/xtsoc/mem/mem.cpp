#include "xtsoc/mem/mem.hpp"

#include <algorithm>
#include <cassert>

#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::mem {

namespace {

int log2_floor(int v) {
  int s = 0;
  while ((1 << (s + 1)) <= v) ++s;
  return s;
}

}  // namespace

System::System(const MemConfig& config, noc::Fabric* fabric)
    : config_(config), fabric_(fabric) {
  line_shift_ = log2_floor(config_.line_bytes < 1 ? 1 : config_.line_bytes);
}

System::~System() = default;

int System::add_domain(int tile, const runtime::Executor* exec) {
  int tag = static_cast<int>(domains_.size());
  Domain d;
  d.tile = tile;
  d.exec = exec;
  domains_.push_back(std::move(d));
  ports_.push_back(std::make_unique<Port>(this, tag, exec));
  // Every executor tile owns a (possibly degenerate) private cache.
  if (static_cast<std::size_t>(tile) >= caches_.size()) {
    caches_.resize(static_cast<std::size_t>(tile) + 1);
  }
  auto at = std::lower_bound(cache_tiles_.begin(), cache_tiles_.end(), tile);
  if (at == cache_tiles_.end() || *at != tile) cache_tiles_.insert(at, tile);
  TileCache& c = caches_[static_cast<std::size_t>(tile)];
  if (cached()) {
    c.lines.assign(static_cast<std::size_t>(config_.sets) *
                       static_cast<std::size_t>(config_.ways),
                   CacheLine{});
  }
  return tag;
}

runtime::MemoryPort* System::port(int tag) {
  return ports_.at(static_cast<std::size_t>(tag)).get();
}

// --- functional layer --------------------------------------------------------

std::int64_t System::load(int tag, std::uint64_t cycle, std::int64_t addr) {
  Domain& d = domains_.at(static_cast<std::size_t>(tag));
  d.accesses.push_back(AccessRec{cycle, addr, 0});
  // Own buffered stores win (store-to-load forwarding).
  for (auto it = d.store_buf.rbegin(); it != d.store_buf.rend(); ++it) {
    if (it->addr == addr) return it->value;
  }
  auto ci = cells_.find(addr);
  if (ci == cells_.end()) return 0;
  const Cell& cell = ci->second;
  // Newest-first: the first version that is globally visible at `cycle`,
  // or that this domain wrote itself (its own stores never un-happen).
  for (auto it = cell.in_flight.rbegin(); it != cell.in_flight.rend(); ++it) {
    if (it->vis <= cycle || it->tag == tag) return it->value;
  }
  // The settled version is visible at `cycle` by the call discipline, and
  // it is the newest of every version the in-flight ones hide.
  assert(cell.settled.vis <= cycle);
  return cell.settled.value;
}

void System::store(int tag, std::uint64_t cycle, std::int64_t addr,
                   std::int64_t value) {
  Domain& d = domains_.at(static_cast<std::size_t>(tag));
  d.accesses.push_back(AccessRec{cycle, addr, 1});
  d.store_buf.push_back(
      StoreRec{addr, value, cycle + config_.lookahead, d.seq++});
}

void System::note_active(int tag) {
  const auto t = static_cast<std::size_t>(tag);
  auto at = std::lower_bound(holding_.begin(), holding_.end(), t);
  if (at == holding_.end() || *at != t) holding_.insert(at, t);
}

void System::append_visible(std::uint64_t horizon) {
  // Every in-flight version became visible at or before the previous
  // horizon, so every read from now on sees it: only the newest one per
  // address can still be returned.
  for (Cell* cell : in_flight_) {
    cell->settled = cell->in_flight.back();
    cell->in_flight.clear();
  }
  in_flight_.clear();
  // Collect every buffered store that becomes visible within the horizon,
  // across all domains, and put them in flight in the one global order
  // that every threads x window configuration agrees on. (tag, seq) is
  // unique per store, so the sort key is total and an unstable sort gives
  // that same order without a temporary buffer.
  std::vector<std::pair<int, StoreRec>>& batch = visible_batch_;
  batch.clear();
  for (int tag = 0; tag < static_cast<int>(domains_.size()); ++tag) {
    auto& buf = domains_[static_cast<std::size_t>(tag)].store_buf;
    std::size_t n = 0;
    while (n < buf.size() && buf[n].vis <= horizon) ++n;
    for (std::size_t i = 0; i < n; ++i) batch.emplace_back(tag, buf[i]);
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(), [](const auto& a, const auto& b) {
    if (a.second.vis != b.second.vis) return a.second.vis < b.second.vis;
    if (a.first != b.first) return a.first < b.first;
    return a.second.seq < b.second.seq;
  });
  for (const auto& [tag, s] : batch) {
    Cell& cell = cells_[s.addr];
    if (cell.in_flight.empty()) in_flight_.push_back(&cell);
    cell.in_flight.push_back(Version{s.value, s.vis, tag, s.seq});
  }
}

// --- timing layer ------------------------------------------------------------

std::int64_t System::line_of(std::int64_t addr) const {
  return addr >> line_shift_;
}

void System::send(int src, int dst, wire::Msg type, std::uint8_t aux,
                  std::int64_t line, bool data_sized, std::uint64_t cycle,
                  std::uint64_t extra) {
  std::size_t pad =
      data_sized ? static_cast<std::size_t>(config_.line_bytes) : 0;
  std::vector<std::uint8_t> payload = wire::encode(type, aux, src, line, pad);
  ++stats_.coh_frames;
  stats_.coh_payload_bytes += payload.size();
  std::size_t chunk = static_cast<std::size_t>(
      config_.flit_bytes < 1 ? 1 : config_.flit_bytes);
  stats_.coh_flits +=
      payload.empty() ? 1 : (payload.size() + chunk - 1) / chunk;
  fabric_->send_frame(src, dst, wire::opcode(type), std::move(payload), cycle,
                      extra);
}

std::uint64_t System::dram_access(std::uint64_t cycle, std::int64_t line,
                                  bool is_write) {
  std::uint64_t u = static_cast<std::uint64_t>(line);
  DramBank& bank = banks_[u & 7];
  std::int64_t row = static_cast<std::int64_t>(u >> 3 >> 6);
  std::uint64_t start = cycle > bank.busy_until ? cycle : bank.busy_until;
  std::uint64_t lat;
  if (bank.open_row == row) {
    lat = static_cast<std::uint64_t>(config_.t_cas);
    ++stats_.dram_row_hits;
  } else if (bank.open_row < 0) {
    lat = static_cast<std::uint64_t>(config_.t_rcd + config_.t_cas);
  } else {
    lat = static_cast<std::uint64_t>(config_.t_rp + config_.t_rcd +
                                     config_.t_cas);
    ++stats_.dram_row_conflicts;
  }
  bank.open_row = row;
  bank.busy_until = start + lat;
  if (is_write) {
    ++stats_.dram_writes;
  } else {
    ++stats_.dram_reads;
  }
  return start + lat - cycle;
}

int System::find_way(TileCache& c, std::int64_t line) const {
  std::size_t set = static_cast<std::size_t>(
      static_cast<std::uint64_t>(line) &
      static_cast<std::uint64_t>(config_.sets - 1));
  std::size_t base = set * static_cast<std::size_t>(config_.ways);
  for (int w = 0; w < config_.ways; ++w) {
    const CacheLine& cl = c.lines[base + static_cast<std::size_t>(w)];
    if (cl.state != kI && cl.line == line)
      return static_cast<int>(base) + w;
  }
  return -1;
}

int System::pick_victim(int tile, TileCache& c, std::int64_t line,
                        std::uint64_t cycle) {
  std::size_t set = static_cast<std::size_t>(
      static_cast<std::uint64_t>(line) &
      static_cast<std::uint64_t>(config_.sets - 1));
  std::size_t base = set * static_cast<std::size_t>(config_.ways);
  int victim = static_cast<int>(base);
  for (int w = 0; w < config_.ways; ++w) {
    CacheLine& cl = c.lines[base + static_cast<std::size_t>(w)];
    if (cl.state == kI) return static_cast<int>(base) + w;
    if (cl.lru < c.lines[static_cast<std::size_t>(victim)].lru)
      victim = static_cast<int>(base) + w;
  }
  CacheLine& v = c.lines[static_cast<std::size_t>(victim)];
  ++stats_.evictions;
  if (v.state == kM) {
    ++stats_.writebacks;
    send(tile, config_.dram_tile, wire::kPutM, 0, v.line, true, cycle, 0);
  }
  // E and S lines drop silently; the directory resyncs on the next request.
  v.state = kI;
  v.line = -1;
  return victim;
}

void System::process_access(int tile, const AccessRec& rec,
                            std::uint64_t cycle) {
  TileCache& c = caches_[static_cast<std::size_t>(tile)];
  std::int64_t line = line_of(rec.addr);
  int way = cached() ? find_way(c, line) : -1;
  if (way >= 0) {
    CacheLine& cl = c.lines[static_cast<std::size_t>(way)];
    bool hit = rec.is_write == 0 || cl.state == kM || cl.state == kE;
    if (hit) {
      if (rec.is_write != 0) cl.state = kM;  // E -> M is a silent upgrade
      cl.lru = ++c.lru_tick;
      ++stats_.hits;
      stats_.load_use_sum +=
          (cycle - rec.cycle) + static_cast<std::uint64_t>(config_.hit_latency);
      ++stats_.load_use_count;
      return;
    }
  }
  // Miss (including a store to a Shared line: upgrade). One MSHR per tile:
  // anything behind an outstanding miss waits in issue order.
  if (c.mshr.valid) {
    c.blocked.push_back(rec);
    return;
  }
  ++stats_.misses;
  c.mshr.valid = true;
  c.mshr.line = line;
  c.mshr.want = rec.is_write != 0 ? kM : kS;
  c.mshr.is_write = rec.is_write;
  c.mshr.issue = rec.cycle;
  c.mshr.way = way >= 0 ? way : (cached() ? pick_victim(tile, c, line, cycle)
                                          : -1);
  send(tile, config_.dram_tile,
       rec.is_write != 0 ? wire::kGetM : wire::kGetS, 0, line, false, cycle,
       0);
}

void System::drain_blocked(int tile, std::uint64_t cycle) {
  TileCache& c = caches_[static_cast<std::size_t>(tile)];
  while (!c.mshr.valid && !c.blocked.empty()) {
    AccessRec rec = c.blocked.front();
    c.blocked.pop_front();
    process_access(tile, rec, cycle);
  }
}

void System::cache_handle(int tile, const wire::Decoded& msg,
                          std::uint64_t cycle) {
  TileCache& c = caches_[static_cast<std::size_t>(tile)];
  switch (msg.type) {
  case wire::kData: {
    if (!c.mshr.valid || c.mshr.line != msg.line) return;  // stale
    if (cached() && c.mshr.way >= 0) {
      CacheLine& cl = c.lines[static_cast<std::size_t>(c.mshr.way)];
      cl.line = msg.line;
      cl.state =
          c.mshr.is_write != 0 ? static_cast<std::uint8_t>(kM) : msg.aux;
      cl.lru = ++c.lru_tick;
    }
    stats_.load_use_sum += (cycle - c.mshr.issue) +
                           static_cast<std::uint64_t>(config_.hit_latency);
    ++stats_.load_use_count;
    c.mshr.valid = false;
    drain_blocked(tile, cycle);
    return;
  }
  case wire::kInv: {
    // aux 0: invalidate (another tile wants Modified). aux 1: downgrade to
    // Shared (another tile wants to read) — the copy survives, and the ack
    // carries aux 1 so the directory keeps this tile in the sharer list.
    int way = cached() ? find_way(c, msg.line) : -1;
    const bool down = msg.aux == 1;
    if (way >= 0) {
      CacheLine& cl = c.lines[static_cast<std::size_t>(way)];
      if (!down) ++stats_.invalidations;
      if (cl.state == kM) {
        ++stats_.writebacks;
        send(tile, config_.dram_tile, wire::kPutM, msg.aux, msg.line, true,
             cycle, 0);
      } else {
        send(tile, config_.dram_tile, wire::kInvAck, msg.aux, msg.line, false,
             cycle, 0);
      }
      cl.state = down ? kS : kI;
      if (!down) cl.line = -1;
    } else {
      // Already silently evicted (or uncached): acknowledge with aux 0 so
      // the directory stops tracking a copy that no longer exists.
      send(tile, config_.dram_tile, wire::kInvAck, 0, msg.line, false, cycle,
           0);
    }
    return;
  }
  default:
    return;  // directory-side message misrouted to a cache: drop
  }
}

void System::dir_grant(int req_tile, std::uint8_t granted, std::int64_t line,
                       std::uint64_t cycle) {
  DirLine& d = dir_[line];
  std::uint64_t extra = dram_access(cycle, line, false);
  if (granted == kS) {
    d.state = 1;
    auto it = std::lower_bound(d.sharers.begin(), d.sharers.end(), req_tile);
    if (it == d.sharers.end() || *it != req_tile) d.sharers.insert(it, req_tile);
  } else {
    d.state = 2;
    d.sharers.assign(1, req_tile);
  }
  send(config_.dram_tile, req_tile, wire::kData, granted, line, true, cycle,
       extra);
}

void System::dir_request(int req_tile, std::uint8_t type, std::int64_t line,
                         std::uint64_t cycle) {
  DirLine& d = dir_[line];
  if (d.busy) {
    d.queue.push_back(DirPending{req_tile, type, 0});
    return;
  }
  bool want_m = type == wire::kGetM;
  if (d.state == 0) {
    // No cached copy anywhere: a load gets Exclusive, a store Modified.
    dir_grant(req_tile, want_m ? kM : kE, line, cycle);
    return;
  }
  if (d.state == 1) {
    if (!want_m) {
      dir_grant(req_tile, kS, line, cycle);
      return;
    }
    // Upgrade: invalidate every other sharer, then grant M.
    std::vector<int> others;
    for (int s : d.sharers) {
      if (s != req_tile) others.push_back(s);
    }
    if (others.empty()) {
      dir_grant(req_tile, kM, line, cycle);
      return;
    }
    for (int s : others) {
      send(config_.dram_tile, s, wire::kInv, 0, line, false, cycle, 0);
    }
    d.busy = true;
    d.pending = DirPending{req_tile, type, static_cast<int>(others.size())};
    return;
  }
  // Exclusive/Modified at some owner.
  int owner = d.sharers.empty() ? req_tile : d.sharers.front();
  if (owner == req_tile) {
    // The owner silently dropped an E line and is asking again.
    dir_grant(req_tile, want_m ? kM : kE, line, cycle);
    return;
  }
  // A writer evicts the owner (aux 0); a reader downgrades it to Shared
  // (aux 1), flushing any dirty data, and both end up with S copies.
  send(config_.dram_tile, owner, wire::kInv, want_m ? 0 : 1, line, false,
       cycle, 0);
  d.busy = true;
  d.pending = DirPending{req_tile, type, 1};
}

void System::dir_complete(std::int64_t line, std::uint64_t cycle) {
  DirLine& d = dir_[line];
  DirPending p = d.pending;
  d.busy = false;
  if (p.type == wire::kGetM) {
    // Every other copy was invalidated; the requester is the sole holder.
    d.state = 0;
    d.sharers.clear();
    dir_grant(p.req_tile, kM, line, cycle);
  } else {
    // Downgrade path: sharers that acked with aux 1 kept S copies (they
    // were not erased), so the requester joins them in Shared.
    dir_grant(p.req_tile, d.sharers.empty() ? kE : kS, line, cycle);
  }
  while (!d.busy && !d.queue.empty()) {
    DirPending next = d.queue.front();
    d.queue.pop_front();
    dir_request(next.req_tile, next.type, line, cycle);
  }
}

void System::dir_handle(const wire::Decoded& msg, std::uint64_t cycle) {
  switch (msg.type) {
  case wire::kGetS:
  case wire::kGetM:
    dir_request(msg.src_tile, msg.type, msg.line, cycle);
    return;
  case wire::kPutM: {
    DirLine& d = dir_[msg.line];
    dram_access(cycle, msg.line, true);
    if (d.busy) {
      // The owner's flush doubles as its invalidation (or downgrade) ack;
      // aux 1 means it kept a Shared copy, so it stays a sharer.
      if (msg.aux != 1) {
        d.sharers.erase(
            std::remove(d.sharers.begin(), d.sharers.end(), msg.src_tile),
            d.sharers.end());
      }
      if (--d.pending.acks_left <= 0) dir_complete(msg.line, cycle);
      return;
    }
    // Voluntary eviction writeback.
    if (d.state == 2 && !d.sharers.empty() &&
        d.sharers.front() == msg.src_tile) {
      d.state = 0;
      d.sharers.clear();
    }
    return;
  }
  case wire::kInvAck: {
    DirLine& d = dir_[msg.line];
    if (!d.busy) return;  // late ack for an already-resolved transaction
    if (msg.aux != 1) {
      d.sharers.erase(
          std::remove(d.sharers.begin(), d.sharers.end(), msg.src_tile),
          d.sharers.end());
    }
    if (--d.pending.acks_left <= 0) dir_complete(msg.line, cycle);
    return;
  }
  default:
    return;  // cache-side message at the directory: drop
  }
}

void System::tick(std::uint64_t cycle, const std::vector<Incoming>& delivered) {
  // 1. Cache-side frames the channels drained this cycle, in tag order.
  for (const Incoming& in : delivered) {
    cache_handle(in.dst_tile, wire::decode(in.payload), cycle);
  }
  // 2. The directory tile has no executor, so the directory is its NIC.
  dir_due_.clear();
  fabric_->pop_due(config_.dram_tile, cycle, dir_due_);
  for (const noc::Delivery& del : dir_due_) {
    if (!wire::is_coherence(del.opcode)) continue;
    dir_handle(wire::decode(del.payload), cycle);
  }
  // 3. Consume access records stamped at or before `cycle`, merged across
  // domains in (stamp, tag, issue order) — the same serial order at any
  // threads x window setting. The domains that may hold records are listed
  // in ascending tags (note_active); after a direct read() or write(), one
  // pass over every domain relists them. The merge looks only at the
  // listed domains with a due record, the earliest stamp winning and ties
  // going to the lowest tag.
  if (sweep_) {
    sweep_ = false;
    holding_.clear();
    for (std::size_t t = 0; t < domains_.size(); ++t) {
      if (!domains_[t].accesses.empty()) holding_.push_back(t);
    }
  }
  if (holding_.empty()) return;
  due_tags_.clear();
  for (std::size_t t : holding_) {
    const auto& q = domains_[t].accesses;
    if (!q.empty() && q.front().cycle <= cycle) due_tags_.push_back(t);
  }
  while (!due_tags_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < due_tags_.size(); ++i) {
      if (domains_[due_tags_[i]].accesses.front().cycle <
          domains_[due_tags_[best]].accesses.front().cycle) {
        best = i;
      }
    }
    Domain& d = domains_[due_tags_[best]];
    AccessRec rec = d.accesses.front();
    d.accesses.pop_front();
    if (d.accesses.empty() || d.accesses.front().cycle > cycle) {
      due_tags_.erase(due_tags_.begin() + static_cast<std::ptrdiff_t>(best));
    }
    if (rec.is_write != 0) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
    }
    process_access(d.tile, rec, cycle);
  }
  std::erase_if(holding_,
                [&](std::size_t t) { return domains_[t].accesses.empty(); });
}

bool System::idle() const {
  for (int tile : cache_tiles_) {
    const TileCache& c = caches_[static_cast<std::size_t>(tile)];
    if (c.mshr.valid || !c.blocked.empty()) return false;
  }
  for (const auto& [line, d] : dir_) {
    if (d.busy || !d.queue.empty()) return false;
  }
  for (const Domain& d : domains_) {
    if (!d.accesses.empty()) return false;
  }
  return true;
}

// --- checkpointing -----------------------------------------------------------

template <class Io, class Self>
void System::layout(Io& io, Self& self) {
  constexpr bool kLoading = Io::kLoading;
  // Shortest encodings, the element sizes passed to Reader::count.
  constexpr std::size_t kStoreBytes = 8 * 4;
  constexpr std::size_t kAccessBytes = 8 + 8 + 1;
  constexpr std::size_t kVersionBytes = 8 * 4;
  constexpr std::size_t kLineBytes = 8 + 1 + 8;
  constexpr std::size_t kCacheBytes = 8 + 8 + 8 + (1 + 8 + 1 + 1 + 8 + 8) + 8;
  constexpr std::size_t kDirBytes = 8 + 1 + 8 + 1 + 8 + 1 + 8 + 8;
  const auto access = [&](auto& a) {
    io.u64(a.cycle);
    io.i64(a.addr);
    io.u8(a.is_write);
  };
  io.expect(std::uint64_t{self.domains_.size()},
            "memory snapshot domain count mismatch");
  for (auto& d : self.domains_) {
    // The tile is construction-owned: the port and the cache follow it.
    io.expect(static_cast<std::uint64_t>(d.tile),
              "memory snapshot domain tile mismatch");
    io.u64(d.seq);
    io.seq(d.store_buf, kStoreBytes, [&](auto& s) {
      io.i64(s.addr);
      io.i64(s.value);
      io.u64(s.vis);
      io.u64(s.seq);
    });
    io.seq(d.accesses, kAccessBytes, access);
  }
  // One version per address, the newest: the count field stays for the
  // v3 layout and the writer always puts 1. Every saved version was
  // visible at the save cycle, so the reader settles each address to its
  // last (newest) one, however many were written.
  const std::size_t cells = io.count(self.cells_.size(), 8 + 8);
  if constexpr (kLoading) {
    self.cells_.clear();
    self.in_flight_.clear();
  }
  auto cell = self.cells_.begin();
  for (std::size_t i = 0; i < cells; ++i) {
    std::int64_t addr = 0;
    Version v;
    if constexpr (!kLoading) {
      addr = cell->first;
      v = cell->second.in_flight.empty() ? cell->second.settled
                                         : cell->second.in_flight.back();
      ++cell;
    }
    io.i64(addr);
    const std::size_t versions = io.count(1, kVersionBytes);
    for (std::size_t j = 0; j < versions; ++j) {
      io.i64(v.value);
      io.u64(v.vis);
      io.u64(v.tag);
      io.u64(v.seq);
    }
    if constexpr (kLoading) {
      if (versions > 0) self.cells_[addr].settled = v;
    }
  }
  const std::size_t lines =
      self.cached() ? static_cast<std::size_t>(self.config_.sets) *
                          static_cast<std::size_t>(self.config_.ways)
                    : 0;
  // The caches in ascending tile order. They are construction-owned, one
  // per domain tile: a snapshot must name exactly those tiles.
  const std::size_t caches = io.count(self.cache_tiles_.size(), kCacheBytes);
  if constexpr (kLoading) {
    if (caches != self.cache_tiles_.size()) {
      throw snap::SnapError("memory snapshot holds " + std::to_string(caches) +
                            " caches, the world has " +
                            std::to_string(self.cache_tiles_.size()));
    }
  }
  for (const int tile : self.cache_tiles_) {
    auto& c = self.caches_[static_cast<std::size_t>(tile)];
    io.expect(static_cast<std::uint64_t>(tile),
              "memory snapshot cache tile mismatch");
    io.u64(c.lru_tick);
    io.seq(c.lines, kLineBytes, [&](auto& cl) {
      io.i64(cl.line);
      io.u8(cl.state);
      io.u64(cl.lru);
    });
    io.boolean(c.mshr.valid);
    io.i64(c.mshr.line);
    io.u8(c.mshr.want);
    io.u8(c.mshr.is_write);
    io.u64(c.mshr.issue);
    io.i64(c.mshr.way);
    io.seq(c.blocked, kAccessBytes, access);
    if constexpr (kLoading) {
      // The set-associative lookups index the lines by set and way.
      if (c.lines.size() != lines ||
          (lines > 0 && c.mshr.way >= static_cast<int>(lines))) {
        throw snap::SnapError(
            "memory snapshot cache of tile " + std::to_string(tile) +
            " holds " + std::to_string(c.lines.size()) +
            " lines with its miss in way " + std::to_string(c.mshr.way) +
            ", the configuration has " + std::to_string(lines));
      }
    }
  }
  io.map(self.dir_, kDirBytes, [&](auto& line, auto& d) {
    io.i64(line);
    io.u8(d.state);
    io.seq(d.sharers, 8, [&](auto& s) { io.u64(s); });
    io.boolean(d.busy);
    io.u64(d.pending.req_tile);
    io.u8(d.pending.type);
    io.i64(d.pending.acks_left);
    io.seq(d.queue, 8 + 1, [&](auto& q) {
      io.u64(q.req_tile);
      io.u8(q.type);
    });
  });
  for (auto& b : self.banks_) {
    io.i64(b.open_row);
    io.u64(b.busy_until);
  }
  auto& st = self.stats_;
  for (auto* c : {&st.loads, &st.stores, &st.hits, &st.misses, &st.evictions,
                  &st.writebacks, &st.invalidations, &st.dram_reads,
                  &st.dram_writes, &st.dram_row_hits, &st.dram_row_conflicts,
                  &st.coh_frames, &st.coh_flits, &st.coh_payload_bytes,
                  &st.load_use_sum, &st.load_use_count}) {
    io.u64(*c);
  }
}

void System::save_state(snap::Writer& w) const { layout(w, *this); }

void System::check_restored(std::uint64_t cycle) const {
  for (const auto& [addr, cell] : cells_) {
    if (cell.settled.vis > cycle) {
      throw snap::SnapError(
          "memory snapshot holds a version of address " +
          std::to_string(addr) + " visible at cycle " +
          std::to_string(cell.settled.vis) + ", after the checkpoint's cycle " +
          std::to_string(cycle));
    }
  }
}

void System::load_state(snap::Reader& r) {
  layout(r, *this);
  sweep_ = true;
}

}  // namespace xtsoc::mem
