#include "xtsoc/marks/marks.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <sstream>

#include "xtsoc/common/strings.hpp"

namespace xtsoc::marks {

namespace {
/// Element key used internally for domain-scope marks.
constexpr const char* kDomainScope = "";

/// Keys that were once standard but select no mapping rule: the software
/// partition is one directly stepped executor, and no mapped run reads the
/// synthetic memory traffic mix. Files naming them still load.
const char* const kRetiredKeys[] = {"busId", "priority",
                                    "memTraffic.writeFraction"};

bool is_fault_rate_key(std::string_view key) {
  return key == kFaultRateFlitDrop || key == kFaultRateFlitCorrupt ||
         key == kFaultRateLinkDown || key == kFaultRateBusError;
}
}  // namespace

const char* to_string(Target t) {
  return t == Target::kHardware ? "hardware" : "software";
}

std::string MarkDiff::to_string() const {
  std::ostringstream os;
  for (const auto& c : changes) {
    os << (c.element.empty() ? "domain" : c.element) << '.' << c.key << ": ";
    os << (c.before ? xtuml::scalar_to_string(*c.before) : "<none>");
    os << " -> ";
    os << (c.after ? xtuml::scalar_to_string(*c.after) : "<none>");
    os << '\n';
  }
  return os.str();
}

void MarkSet::set_class_mark(std::string_view class_name, std::string_view key,
                             xtuml::ScalarValue value) {
  marks_[std::string(class_name)][std::string(key)] = std::move(value);
}

void MarkSet::set_domain_mark(std::string_view key, xtuml::ScalarValue value) {
  marks_[kDomainScope][std::string(key)] = std::move(value);
}

void MarkSet::clear_class_mark(std::string_view class_name,
                               std::string_view key) {
  auto it = marks_.find(class_name);
  if (it == marks_.end()) return;
  it->second.erase(std::string(key));
  if (it->second.empty()) marks_.erase(it);
}

void MarkSet::mark_hardware(std::string_view class_name, bool is_hw) {
  set_class_mark(class_name, kIsHardware, xtuml::ScalarValue(is_hw));
}

std::optional<xtuml::ScalarValue> MarkSet::class_mark(
    std::string_view class_name, std::string_view key) const {
  auto it = marks_.find(class_name);
  if (it == marks_.end()) return std::nullopt;
  auto kit = it->second.find(std::string(key));
  if (kit == it->second.end()) return std::nullopt;
  return kit->second;
}

std::optional<xtuml::ScalarValue> MarkSet::domain_mark(
    std::string_view key) const {
  return class_mark(kDomainScope, key);
}

std::int64_t MarkSet::class_mark_int(std::string_view class_name,
                                     std::string_view key,
                                     std::int64_t fallback) const {
  auto v = class_mark(class_name, key);
  if (!v || !std::holds_alternative<std::int64_t>(*v)) return fallback;
  return std::get<std::int64_t>(*v);
}

std::int64_t MarkSet::domain_mark_int(std::string_view key,
                                      std::int64_t fallback) const {
  return class_mark_int(kDomainScope, key, fallback);
}

Target MarkSet::target_of(std::string_view class_name) const {
  auto v = class_mark(class_name, kIsHardware);
  if (v && std::holds_alternative<bool>(*v) && std::get<bool>(*v)) {
    return Target::kHardware;
  }
  return Target::kSoftware;
}

std::size_t MarkSet::mark_count() const {
  std::size_t n = 0;
  for (const auto& [el, kv] : marks_) n += kv.size();
  return n;
}

MarkDiff MarkSet::diff(const MarkSet& before, const MarkSet& after) {
  MarkDiff d;
  // Removed or changed.
  for (const auto& [el, kv] : before.marks_) {
    for (const auto& [key, val] : kv) {
      auto now = after.class_mark(el, key);
      if (!now) {
        d.changes.push_back({el, key, val, std::nullopt});
      } else if (*now != val) {
        d.changes.push_back({el, key, val, *now});
      }
    }
  }
  // Added.
  for (const auto& [el, kv] : after.marks_) {
    for (const auto& [key, val] : kv) {
      if (!before.class_mark(el, key)) {
        d.changes.push_back({el, key, std::nullopt, val});
      }
    }
  }
  return d;
}

bool MarkSet::validate(const xtuml::Domain& domain,
                       DiagnosticSink& sink) const {
  const std::size_t before = sink.error_count();
  for (const auto& [element, kv] : marks_) {
    const bool domain_scope = element.empty();
    if (!domain_scope && domain.find_class(element) == nullptr) {
      sink.error("marks.unknown_class",
                 "mark on unknown class '" + element + "'");
      continue;
    }
    for (const auto& [key, value] : kv) {
      if (key == kIsHardware) {
        if (domain_scope) {
          sink.error("marks.scope", "isHardware is a class mark, not domain");
        } else if (!std::holds_alternative<bool>(value)) {
          sink.error("marks.type", element + ".isHardware must be a bool");
        }
      } else if (key == kClockDomain || key == kMaxInstances ||
                 key == kIntWidth || key == kTileX || key == kTileY) {
        if (domain_scope) {
          sink.error("marks.scope",
                     std::string(key) + " is a class mark, not domain");
        } else if (!std::holds_alternative<std::int64_t>(value)) {
          sink.error("marks.type", element + "." + key + " must be an int");
        }
      } else if (key == kBusLatency || key == kMeshWidth ||
                 key == kMeshHeight || key == kSwTileX || key == kSwTileY ||
                 key == kLinkLatency || key == kFlitBytes ||
                 key == kFifoDepth || key == kFaultSeed ||
                 key == kFaultWindow || key == kFaultWindowStart ||
                 key == kDramTile || key == kDramTRcd || key == kDramTCas ||
                 key == kDramTRp || key == kCacheSets || key == kCacheWays ||
                 key == kCacheLineBytes || key == kCacheHitLatency) {
        if (!domain_scope) {
          sink.error("marks.scope",
                     std::string(key) + " is a domain mark, not class");
        } else if (!std::holds_alternative<std::int64_t>(value)) {
          sink.error("marks.type",
                     "domain." + std::string(key) + " must be an int");
        }
      } else if (key == kTopology || key == kRouting) {
        if (!domain_scope) {
          sink.error("marks.scope",
                     std::string(key) + " is a domain mark, not class");
        } else if (!std::holds_alternative<std::string>(value)) {
          sink.error("marks.type",
                     "domain." + std::string(key) + " must be a string");
        }
      } else if (is_fault_rate_key(key)) {
        // Rates read naturally as reals but 0 and 1 parse as ints; accept
        // both so "faultRate.flitDrop = 0" round-trips.
        if (!domain_scope) {
          sink.error("marks.scope",
                     std::string(key) + " is a domain mark, not class");
        } else if (!std::holds_alternative<double>(value) &&
                   !std::holds_alternative<std::int64_t>(value)) {
          sink.error("marks.type",
                     "domain." + std::string(key) + " must be a number");
        }
      } else if (std::find(std::begin(kRetiredKeys), std::end(kRetiredKeys),
                           key) != std::end(kRetiredKeys)) {
        sink.warning("marks.retired",
                     "mark key '" + key + "' is retired: it selects no "
                     "mapping rule and is ignored");
      } else {
        // Unknown key: allowed, but warn on case/underscore near-misses.
        auto normalize = [](std::string_view k) {
          std::string out;
          for (char ch : k) {
            if (ch == '_') continue;
            out.push_back(
                static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
          }
          return out;
        };
        std::string lower = normalize(key);
        auto near = [&](const char* std_key) {
          return lower == normalize(std_key) && key != std_key;
        };
        bool near_miss = false;
        for (const char* k : kStandardClassKeys) near_miss |= near(k);
        for (const char* k : kStandardDomainKeys) near_miss |= near(k);
        if (near_miss) {
          sink.warning("marks.near_miss",
                       "mark key '" + key + "' looks like a misspelled "
                       "standard mark");
        }
      }
    }
  }
  // A positive intWidth must fit the 64-bit abstract integer.
  for (const auto& [element, kv] : marks_) {
    auto it = kv.find(kIntWidth);
    if (it != kv.end() && std::holds_alternative<std::int64_t>(it->second)) {
      std::int64_t w = std::get<std::int64_t>(it->second);
      if (w < 1 || w > 64) {
        sink.error("marks.int_width",
                   element + ".intWidth must be in [1, 64]");
      }
    }
  }

  // Interconnect latency marks are lookahead sources for the windowed
  // co-simulation scheduler (and wait counts in the generated VHDL), so
  // nonsensical values are rejected here rather than surfacing as a stuck
  // or time-traveling interconnect later. busLatency 0 is legal — it
  // clamps the scheduler to one-cycle windows — but negative is not;
  // linkLatency is a physical per-hop traversal time and must be >= 1.
  for (const auto& [element, kv] : marks_) {
    if (auto it = kv.find(kBusLatency);
        it != kv.end() && std::holds_alternative<std::int64_t>(it->second) &&
        std::get<std::int64_t>(it->second) < 0) {
      sink.error("marks.bus_latency",
                 "domain.busLatency must be >= 0 (got " +
                     std::to_string(std::get<std::int64_t>(it->second)) +
                     "); a bus cannot deliver into the past");
    }
    if (auto it = kv.find(kLinkLatency);
        it != kv.end() && std::holds_alternative<std::int64_t>(it->second) &&
        std::get<std::int64_t>(it->second) < 1) {
      sink.error("marks.link_latency",
                 "domain.linkLatency must be >= 1 (got " +
                     std::to_string(std::get<std::int64_t>(it->second)) +
                     "); every mesh hop takes at least one cycle");
    }
  }

  // Fault marks describe a reproducible failure scenario; out-of-range
  // values would make a campaign either meaningless (a probability above 1)
  // or irreproducible (a negative seed truncated who-knows-how), so they
  // are rejected here, at the same gate as every other platform mark.
  for (const auto& [element, kv] : marks_) {
    if (!element.empty()) continue;  // scope errors reported above
    for (const char* key : {kFaultSeed, kFaultWindow, kFaultWindowStart}) {
      if (auto it = kv.find(key);
          it != kv.end() && std::holds_alternative<std::int64_t>(it->second) &&
          std::get<std::int64_t>(it->second) < 0) {
        sink.error("marks.fault_range",
                   "domain." + std::string(key) + " must be >= 0 (got " +
                       std::to_string(std::get<std::int64_t>(it->second)) +
                       ")");
      }
    }
    for (const char* key :
         {kFaultRateFlitDrop, kFaultRateFlitCorrupt, kFaultRateLinkDown,
          kFaultRateBusError}) {
      auto it = kv.find(key);
      if (it == kv.end()) continue;
      double rate = 0.0;
      if (std::holds_alternative<double>(it->second)) {
        rate = std::get<double>(it->second);
      } else if (std::holds_alternative<std::int64_t>(it->second)) {
        rate = static_cast<double>(std::get<std::int64_t>(it->second));
      } else {
        continue;  // typed wrong; reported above
      }
      if (rate < 0.0 || rate > 1.0) {
        sink.error("marks.fault_range",
                   "domain." + std::string(key) +
                       " is a probability and must be in [0, 1]");
      }
    }
    // An inverted window would silently disarm every fault — reject it.
    auto wit = kv.find(kFaultWindow);
    auto sit = kv.find(kFaultWindowStart);
    if (wit != kv.end() && sit != kv.end() &&
        std::holds_alternative<std::int64_t>(wit->second) &&
        std::holds_alternative<std::int64_t>(sit->second)) {
      std::int64_t end = std::get<std::int64_t>(wit->second);
      std::int64_t start = std::get<std::int64_t>(sit->second);
      if (end > 0 && start >= end) {
        sink.error("marks.fault_range",
                   "domain.faultWindow.start (" + std::to_string(start) +
                       ") is after domain.faultWindow (" +
                       std::to_string(end) + "); the window is empty");
      }
    }
  }

  // NoC placement rules. Any tileX/tileY mark switches the mapping to the
  // mesh interconnect, so the placement must describe a buildable mesh.
  bool any_tiles = false;
  std::int64_t max_x = 0, max_y = 0;
  for (const auto& [element, kv] : marks_) {
    if (element.empty()) continue;
    auto tx = kv.find(kTileX);
    auto ty = kv.find(kTileY);
    const bool has_x = tx != kv.end();
    const bool has_y = ty != kv.end();
    if (!has_x && !has_y) continue;
    any_tiles = true;
    if (has_x != has_y) {
      sink.error("marks.tile_pair",
                 "class '" + element + "' has " +
                     (has_x ? "tileX without tileY" : "tileY without tileX") +
                     "; a placement needs both coordinates");
      continue;
    }
    if (!std::holds_alternative<std::int64_t>(tx->second) ||
        !std::holds_alternative<std::int64_t>(ty->second)) {
      continue;  // typed wrong; reported above
    }
    std::int64_t x = std::get<std::int64_t>(tx->second);
    std::int64_t y = std::get<std::int64_t>(ty->second);
    if (x < 0 || y < 0) {
      sink.error("marks.tile_range", "class '" + element +
                                         "' is placed at negative tile (" +
                                         std::to_string(x) + "," +
                                         std::to_string(y) + ")");
    }
    if (x > max_x) max_x = x;
    if (y > max_y) max_y = y;
    auto hw = kv.find(kIsHardware);
    const bool is_hw = hw != kv.end() &&
                       std::holds_alternative<bool>(hw->second) &&
                       std::get<bool>(hw->second);
    if (!is_hw) {
      sink.warning("marks.tile_sw",
                   "class '" + element + "' has tile marks but is not "
                   "isHardware; software classes live on the software tile "
                   "and the placement is ignored");
    }
  }
  if (any_tiles) {
    std::int64_t mesh_w = domain_mark_int(kMeshWidth, max_x + 1);
    std::int64_t mesh_h = domain_mark_int(kMeshHeight, max_y + 1);
    std::int64_t sw_x = domain_mark_int(kSwTileX, 0);
    std::int64_t sw_y = domain_mark_int(kSwTileY, 0);
    if (mesh_w < 1 || mesh_h < 1 || mesh_w > 64 || mesh_h > 64) {
      sink.error("marks.mesh_dims", "meshWidth/meshHeight must be in [1, 64]");
    } else {
      auto in_mesh = [&](std::int64_t x, std::int64_t y) {
        return x >= 0 && x < mesh_w && y >= 0 && y < mesh_h;
      };
      if (!in_mesh(sw_x, sw_y)) {
        sink.error("marks.tile_range",
                   "software tile (" + std::to_string(sw_x) + "," +
                       std::to_string(sw_y) + ") is outside the " +
                       std::to_string(mesh_w) + "x" + std::to_string(mesh_h) +
                       " mesh");
      }
      for (const auto& [element, kv] : marks_) {
        if (element.empty()) continue;
        auto tx = kv.find(kTileX);
        auto ty = kv.find(kTileY);
        if (tx == kv.end() || ty == kv.end() ||
            !std::holds_alternative<std::int64_t>(tx->second) ||
            !std::holds_alternative<std::int64_t>(ty->second)) {
          continue;
        }
        std::int64_t x = std::get<std::int64_t>(tx->second);
        std::int64_t y = std::get<std::int64_t>(ty->second);
        if (x < 0 || y < 0) continue;  // already reported
        if (!in_mesh(x, y)) {
          sink.error("marks.tile_range",
                     "class '" + element + "' is placed at tile (" +
                         std::to_string(x) + "," + std::to_string(y) +
                         "), outside the " + std::to_string(mesh_w) + "x" +
                         std::to_string(mesh_h) + " mesh");
        } else if (x == sw_x && y == sw_y) {
          sink.error("marks.tile_clash",
                     "class '" + element + "' is placed on tile (" +
                         std::to_string(x) + "," + std::to_string(y) +
                         "), which is the software tile");
        }
      }
    }
    // Placement must be total: every hardware class needs a tile once the
    // mesh is in play (an unplaced FSM bank has no router to sit behind).
    for (const auto& [element, kv] : marks_) {
      if (element.empty()) continue;
      auto hw = kv.find(kIsHardware);
      const bool is_hw = hw != kv.end() &&
                         std::holds_alternative<bool>(hw->second) &&
                         std::get<bool>(hw->second);
      if (is_hw && (!kv.contains(kTileX) || !kv.contains(kTileY))) {
        sink.error("marks.tile_missing",
                   "class '" + element + "' is isHardware but has no "
                   "tileX/tileY; every hardware class needs a tile once any "
                   "class is placed on the mesh");
      }
    }
  }

  // Topology and routing marks: legal values, and shapes that can actually
  // be wired. The platform is a marks decision, so an impossible platform
  // is a marks error — caught here, not as a FabricError at elaboration.
  {
    auto str_mark = [&](const char* key) -> std::optional<std::string> {
      auto v = domain_mark(key);
      if (!v || !std::holds_alternative<std::string>(*v)) return std::nullopt;
      return std::get<std::string>(*v);
    };
    const auto topo = str_mark(kTopology);
    const auto routing = str_mark(kRouting);
    if (topo && *topo != "mesh" && *topo != "torus" && *topo != "ring") {
      sink.error("marks.topology",
                 "domain.topology must be \"mesh\", \"torus\" or \"ring\" "
                 "(got \"" + *topo + "\")");
    }
    if (routing && *routing != "xy" && *routing != "yx" &&
        *routing != "adaptive") {
      sink.error("marks.routing",
                 "domain.routing must be \"xy\", \"yx\" or \"adaptive\" "
                 "(got \"" + *routing + "\")");
    }
    // Shape compatibility, judged against the same effective dimensions the
    // partition derives (explicit meshWidth/meshHeight, else the placement
    // bounding box). Only meaningful once the mesh is described at all.
    const bool mesh_described = any_tiles || domain_mark(kMeshWidth) ||
                                domain_mark(kMeshHeight);
    if (mesh_described) {
      const std::int64_t mesh_w =
          domain_mark_int(kMeshWidth, any_tiles ? max_x + 1 : 1);
      const std::int64_t mesh_h =
          domain_mark_int(kMeshHeight, any_tiles ? max_y + 1 : 1);
      if (topo && *topo == "ring" && mesh_h > 1) {
        sink.error("marks.topology",
                   "ring topology is one row, but the mesh is " +
                       std::to_string(mesh_w) + "x" + std::to_string(mesh_h) +
                       "; set meshHeight = 1 or use torus");
      }
      if (topo && *topo == "torus" && (mesh_w < 2 || mesh_h < 2)) {
        sink.error("marks.topology",
                   "torus wraparound needs both dimensions >= 2, but the "
                   "mesh is " + std::to_string(mesh_w) + "x" +
                       std::to_string(mesh_h) +
                       "; a single wrapped row is a ring");
      }
    }
    // Adaptive routing picks ports by live credit, so the retransmit
    // detour's primary/fallback dimension orders do not exist under it.
    if (routing && *routing == "adaptive") {
      for (const char* key :
           {kFaultRateFlitDrop, kFaultRateFlitCorrupt, kFaultRateLinkDown}) {
        auto v = domain_mark(key);
        if (!v) continue;
        double rate = 0.0;
        if (std::holds_alternative<double>(*v)) {
          rate = std::get<double>(*v);
        } else if (std::holds_alternative<std::int64_t>(*v)) {
          rate = static_cast<double>(std::get<std::int64_t>(*v));
        }
        if (rate > 0.0) {
          sink.error("marks.routing",
                     "domain.routing = \"adaptive\" cannot be combined with "
                     "domain." + std::string(key) +
                         " > 0: the fault retransmit path alternates "
                         "dimension orders, which adaptive routing replaces");
          break;
        }
      }
    }
  }

  // Memory-hierarchy marks. The DRAM edge is a fabric endpoint, so it needs
  // a mesh, a tile inside it, and no executor already on that tile; cache
  // indexing is bit-sliced, so the geometry must be powers of two. All of
  // this is a platform decision — rejected here, with the other marks.
  {
    auto int_mark = [&](const char* key) -> std::optional<std::int64_t> {
      auto v = domain_mark(key);
      if (!v || !std::holds_alternative<std::int64_t>(*v)) return std::nullopt;
      return std::get<std::int64_t>(*v);
    };
    const bool has_dram = domain_mark(kDramTile).has_value();
    const bool any_mem_mark =
        has_dram || domain_mark(kDramTRcd) || domain_mark(kDramTCas) ||
        domain_mark(kDramTRp) || domain_mark(kCacheSets) ||
        domain_mark(kCacheWays) || domain_mark(kCacheLineBytes) ||
        domain_mark(kCacheHitLatency);
    if (any_mem_mark && !has_dram) {
      sink.error("marks.dram.missing_tile",
                 "cache.*/dram.* marks need domain.dram.tile; without a DRAM "
                 "edge tile there is no memory hierarchy to configure");
    }
    if (has_dram && !any_tiles) {
      sink.error("marks.dram.requires_mesh",
                 "domain.dram.tile needs a mesh-mapped domain (tileX/tileY "
                 "placements); coherence messages are fabric frames");
    }
    auto pow2 = [](std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; };
    for (const char* key : {kCacheSets, kCacheWays, kCacheLineBytes}) {
      if (auto v = int_mark(key); v && !pow2(*v)) {
        sink.error("marks.cache.pow2",
                   "domain." + std::string(key) +
                       " must be a positive power of two (got " +
                       std::to_string(*v) + "); cache indexing is bit-sliced");
      }
    }
    if (auto v = int_mark(kCacheHitLatency); v && *v < 1) {
      sink.error("marks.cache.range",
                 "domain.cache.hitLatency must be >= 1 (got " +
                     std::to_string(*v) + "); even a hit takes a cycle");
    }
    for (const char* key : {kDramTRcd, kDramTCas, kDramTRp}) {
      if (auto v = int_mark(key); v && *v < 1) {
        sink.error("marks.dram.range",
                   "domain." + std::string(key) + " must be >= 1 (got " +
                       std::to_string(*v) + ")");
      }
    }
    if (auto dt = int_mark(kDramTile); dt && any_tiles) {
      const std::int64_t mesh_w = domain_mark_int(kMeshWidth, max_x + 1);
      const std::int64_t mesh_h = domain_mark_int(kMeshHeight, max_y + 1);
      if (*dt < 0 || *dt >= mesh_w * mesh_h) {
        sink.error("marks.dram.tile",
                   "domain.dram.tile " + std::to_string(*dt) +
                       " is outside the " + std::to_string(mesh_w) + "x" +
                       std::to_string(mesh_h) + " mesh");
      } else {
        const std::int64_t sw_tile =
            domain_mark_int(kSwTileY, 0) * mesh_w + domain_mark_int(kSwTileX, 0);
        if (*dt == sw_tile) {
          sink.error("marks.dram.tile_clash",
                     "domain.dram.tile " + std::to_string(*dt) +
                         " is the software tile; the DRAM edge needs an "
                         "unoccupied tile (its NIC is the directory)");
        }
        for (const auto& [element, kv] : marks_) {
          if (element.empty()) continue;
          auto tx = kv.find(kTileX);
          auto ty = kv.find(kTileY);
          if (tx == kv.end() || ty == kv.end() ||
              !std::holds_alternative<std::int64_t>(tx->second) ||
              !std::holds_alternative<std::int64_t>(ty->second)) {
            continue;
          }
          std::int64_t tile = std::get<std::int64_t>(ty->second) * mesh_w +
                              std::get<std::int64_t>(tx->second);
          if (tile == *dt) {
            sink.error("marks.dram.tile_clash",
                       "domain.dram.tile " + std::to_string(*dt) +
                           " collides with class '" + element +
                           "'; the DRAM edge needs an unoccupied tile");
          }
        }
      }
    }
  }
  return sink.error_count() == before;
}

std::string MarkSet::to_text() const {
  std::ostringstream os;
  for (const auto& [element, kv] : marks_) {
    for (const auto& [key, value] : kv) {
      os << (element.empty() ? "domain" : element) << '.' << key << " = "
         << xtuml::scalar_to_string(value) << '\n';
    }
  }
  return os.str();
}

MarkSet MarkSet::from_text(std::string_view text, DiagnosticSink& sink) {
  MarkSet out;
  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.starts_with("#")) continue;

    SourceLoc loc{line_no, 1};
    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      sink.error("marks.parse", "expected 'element.key = value'", loc);
      continue;
    }
    std::string_view lhs = trim(line.substr(0, eq));
    std::string_view rhs = trim(line.substr(eq + 1));
    std::size_t dot = lhs.find('.');
    if (dot == std::string_view::npos) {
      sink.error("marks.parse", "expected 'element.key' before '='", loc);
      continue;
    }
    std::string element(trim(lhs.substr(0, dot)));
    std::string key(trim(lhs.substr(dot + 1)));
    if (element == "domain") element.clear();

    xtuml::ScalarValue value;
    if (rhs == "true") {
      value = true;
    } else if (rhs == "false") {
      value = false;
    } else if (!rhs.empty() && rhs.front() == '"') {
      if (rhs.size() < 2 || rhs.back() != '"') {
        sink.error("marks.parse", "unterminated string value", loc);
        continue;
      }
      value = std::string(rhs.substr(1, rhs.size() - 2));
    } else if (rhs.find('.') != std::string_view::npos) {
      try {
        value = std::stod(std::string(rhs));
      } catch (...) {
        sink.error("marks.parse", "bad real value '" + std::string(rhs) + "'",
                   loc);
        continue;
      }
    } else {
      std::int64_t iv = 0;
      auto [p, ec] = std::from_chars(rhs.data(), rhs.data() + rhs.size(), iv);
      if (ec != std::errc{} || p != rhs.data() + rhs.size()) {
        sink.error("marks.parse", "bad value '" + std::string(rhs) + "'", loc);
        continue;
      }
      value = iv;
    }
    if (element.empty()) {
      out.set_domain_mark(key, std::move(value));
    } else {
      out.set_class_mark(element, key, std::move(value));
    }
  }
  return out;
}

}  // namespace xtsoc::marks
