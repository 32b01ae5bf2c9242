#include "xtsoc/mapping/partition.hpp"

#include <algorithm>
#include <sstream>
#include <variant>

#include "xtsoc/mapping/classrefs.hpp"
#include "xtsoc/noc/topology.hpp"

namespace xtsoc::mapping {

Partition Partition::from_marks(const xtuml::Domain& domain,
                                const marks::MarkSet& marks) {
  Partition p;
  p.by_class_.resize(domain.class_count(), marks::Target::kSoftware);
  for (const auto& c : domain.classes()) {
    marks::Target t = marks.target_of(c.name);
    p.by_class_[c.id.value()] = t;
    if (t == marks::Target::kHardware) {
      p.hardware_.push_back(c.id);
    } else {
      p.software_.push_back(c.id);
    }
  }

  // Mesh placement: enabled by the presence of any tileX/tileY mark.
  // Dimensions default to the bounding box of the placement (plus the
  // software tile); marks::validate has already rejected inconsistent or
  // out-of-range placements.
  std::int64_t max_x = 0, max_y = 0;
  bool any_tiles = false;
  for (const auto& c : domain.classes()) {
    auto tx = marks.class_mark(c.name, marks::kTileX);
    auto ty = marks.class_mark(c.name, marks::kTileY);
    if (!tx && !ty) continue;
    any_tiles = true;
    max_x = std::max(max_x, marks.class_mark_int(c.name, marks::kTileX, 0));
    max_y = std::max(max_y, marks.class_mark_int(c.name, marks::kTileY, 0));
  }
  p.tile_by_class_.resize(domain.class_count(), 0);
  if (!any_tiles) return p;

  MeshSpec& m = p.mesh_;
  m.enabled = true;
  m.sw_x = static_cast<int>(marks.domain_mark_int(marks::kSwTileX, 0));
  m.sw_y = static_cast<int>(marks.domain_mark_int(marks::kSwTileY, 0));
  m.width = static_cast<int>(marks.domain_mark_int(
      marks::kMeshWidth, std::max(max_x, std::int64_t{m.sw_x}) + 1));
  m.height = static_cast<int>(marks.domain_mark_int(
      marks::kMeshHeight, std::max(max_y, std::int64_t{m.sw_y}) + 1));
  m.link_latency =
      static_cast<int>(marks.domain_mark_int(marks::kLinkLatency, 1));
  m.flit_bytes = static_cast<int>(marks.domain_mark_int(marks::kFlitBytes, 4));
  m.fifo_depth = static_cast<int>(marks.domain_mark_int(marks::kFifoDepth, 4));
  if (auto v = marks.domain_mark(marks::kTopology);
      v && std::holds_alternative<std::string>(*v)) {
    if (auto k = noc::topology_from_string(std::get<std::string>(*v))) {
      m.topology = *k;
    }
  }
  if (auto v = marks.domain_mark(marks::kRouting);
      v && std::holds_alternative<std::string>(*v)) {
    if (auto r = noc::routing_from_string(std::get<std::string>(*v))) {
      m.routing = *r;
    }
  }
  for (const auto& c : domain.classes()) {
    if (p.by_class_[c.id.value()] == marks::Target::kHardware) {
      p.tile_by_class_[c.id.value()] = m.index(
          static_cast<int>(marks.class_mark_int(c.name, marks::kTileX, 0)),
          static_cast<int>(marks.class_mark_int(c.name, marks::kTileY, 0)));
    } else {
      p.tile_by_class_[c.id.value()] = m.sw_tile();
    }
  }

  // Memory hierarchy: enabled by the presence of `dram.tile`. A mesh-only
  // feature (coherence rides the fabric); marks::validate has already
  // rejected a dram.tile off the mesh or on an occupied tile, and non-
  // power-of-two cache geometry.
  if (marks.domain_mark(marks::kDramTile)) {
    MemSpec& mem = p.mem_;
    mem.enabled = true;
    mem.dram_tile = static_cast<int>(marks.domain_mark_int(marks::kDramTile, 0));
    mem.sets = static_cast<int>(marks.domain_mark_int(marks::kCacheSets, 0));
    mem.ways = static_cast<int>(marks.domain_mark_int(marks::kCacheWays, 2));
    mem.line_bytes =
        static_cast<int>(marks.domain_mark_int(marks::kCacheLineBytes, 64));
    mem.hit_latency =
        static_cast<int>(marks.domain_mark_int(marks::kCacheHitLatency, 1));
    mem.t_rcd = static_cast<int>(marks.domain_mark_int(marks::kDramTRcd, 2));
    mem.t_cas = static_cast<int>(marks.domain_mark_int(marks::kDramTCas, 2));
    mem.t_rp = static_cast<int>(marks.domain_mark_int(marks::kDramTRp, 2));
  }
  return p;
}

int Partition::tile_of(ClassId cls) const {
  if (!mesh_.enabled || cls.value() >= tile_by_class_.size()) return 0;
  return tile_by_class_[cls.value()];
}

std::vector<int> Partition::hardware_tiles() const {
  std::vector<int> tiles;
  for (ClassId c : hardware_) {
    int t = tile_of(c);
    if (std::find(tiles.begin(), tiles.end(), t) == tiles.end()) {
      tiles.push_back(t);
    }
  }
  std::sort(tiles.begin(), tiles.end());
  return tiles;
}

marks::Target Partition::target_of(ClassId cls) const {
  if (cls.value() >= by_class_.size()) return marks::Target::kSoftware;
  return by_class_[cls.value()];
}

std::string Partition::to_string(const xtuml::Domain& domain) const {
  std::ostringstream os;
  os << "software: ";
  for (ClassId c : software_) os << domain.cls(c).name << ' ';
  os << "| hardware: ";
  for (ClassId c : hardware_) {
    os << domain.cls(c).name;
    if (mesh_.enabled) {
      int t = tile_of(c);
      os << "@(" << t % mesh_.width << ',' << t / mesh_.width << ')';
    }
    os << ' ';
  }
  if (mesh_.enabled) {
    os << "| " << noc::to_string(mesh_.topology) << ": " << mesh_.width << 'x'
       << mesh_.height << " sw@(" << mesh_.sw_x << ',' << mesh_.sw_y << ") ";
    if (mesh_.routing != noc::RoutePolicy::kXY) {
      os << "routing=" << noc::to_string(mesh_.routing) << ' ';
    }
  }
  return os.str();
}

namespace {

bool class_uses_strings(const xtuml::ClassDef& cls) {
  for (const auto& a : cls.attributes) {
    if (a.type == xtuml::DataType::kString) return true;
  }
  for (const auto& e : cls.events) {
    for (const auto& p : e.params) {
      if (p.type == xtuml::DataType::kString) return true;
    }
  }
  return false;
}

}  // namespace

bool validate_partition(const oal::CompiledDomain& compiled,
                        const Partition& partition, DiagnosticSink& sink) {
  const xtuml::Domain& domain = compiled.domain();
  const std::size_t before = sink.error_count();

  // Rule 1: no cross-boundary data access from any action.
  for (const auto& c : domain.classes()) {
    ClassRefs refs = collect_class_refs(compiled, c.id);
    for (ClassId touched : refs.touched) {
      if (partition.crosses_boundary(c.id, touched)) {
        sink.error("mapping.partition.data_cross",
                   "actions of '" + c.name + "' (" +
                       marks::to_string(partition.target_of(c.id)) +
                       ") access data of '" + domain.cls(touched).name +
                       "' (" +
                       marks::to_string(partition.target_of(touched)) +
                       "); only signals may cross the partition boundary");
      }
    }
  }

  // Rule 2: associations must not span the boundary.
  for (const auto& a : domain.associations()) {
    if (partition.crosses_boundary(a.a.cls, a.b.cls)) {
      sink.error("mapping.partition.assoc_cross",
                 "association " + a.name + " spans the partition boundary (" +
                     domain.cls(a.a.cls).name + " / " +
                     domain.cls(a.b.cls).name + ")");
    }
  }

  // Rules 1b/2b (mesh only): tiles are separate executors that share no
  // memory either, so data access and associations must stay on one tile.
  if (partition.mesh().enabled) {
    for (const auto& c : domain.classes()) {
      ClassRefs refs = collect_class_refs(compiled, c.id);
      for (ClassId touched : refs.touched) {
        if (!partition.crosses_boundary(c.id, touched) &&
            partition.tile_of(c.id) != partition.tile_of(touched)) {
          sink.error("mapping.partition.tile_data_cross",
                     "actions of '" + c.name + "' (tile " +
                         std::to_string(partition.tile_of(c.id)) +
                         ") access data of '" + domain.cls(touched).name +
                         "' (tile " +
                         std::to_string(partition.tile_of(touched)) +
                         "); only signals may cross tiles");
        }
      }
    }
    for (const auto& a : domain.associations()) {
      if (!partition.crosses_boundary(a.a.cls, a.b.cls) &&
          partition.tile_of(a.a.cls) != partition.tile_of(a.b.cls)) {
        sink.error("mapping.partition.tile_assoc_cross",
                   "association " + a.name + " spans mesh tiles (" +
                       domain.cls(a.a.cls).name + " / " +
                       domain.cls(a.b.cls).name + ")");
      }
    }
  }

  // Rule 3: hardware classes are string-free.
  for (ClassId hw : partition.hardware()) {
    const xtuml::ClassDef& c = domain.cls(hw);
    if (class_uses_strings(c)) {
      sink.error("mapping.partition.hw_string",
                 "hardware class '" + c.name +
                     "' uses string-typed attributes or event parameters, "
                     "which have no wire representation");
    }
    // Actions of hardware classes must not use string values at all.
    for (const auto& action : compiled.cls(hw).state_actions) {
      for (const auto& local : action.locals) {
        if (local.type.base == xtuml::DataType::kString) {
          sink.error("mapping.partition.hw_string",
                     "hardware class '" + c.name +
                         "' action uses string-typed local '" + local.name +
                         "'");
        }
      }
    }
  }

  return sink.error_count() == before;
}

}  // namespace xtsoc::mapping
