#include "xtsoc/mapping/partition.hpp"

#include <algorithm>
#include <sstream>

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

  // Mesh placement: enabled by the presence of any tileX/tileY mark, with
  // the shape marks::validate has already checked.
  const marks::MeshShape shape = marks.mesh_shape();
  p.tile_by_class_.resize(domain.class_count(), 0);
  if (!shape.placed) return p;

  auto int_mark = [&](const char* key) {
    return static_cast<int>(marks.domain_mark_int(key));
  };
  MeshSpec& m = p.mesh_;
  m.enabled = true;
  m.width = static_cast<int>(shape.width);
  m.height = static_cast<int>(shape.height);
  m.sw_x = static_cast<int>(shape.sw_x);
  m.sw_y = static_cast<int>(shape.sw_y);
  m.link_latency = int_mark(marks::kLinkLatency);
  m.flit_bytes = int_mark(marks::kFlitBytes);
  m.fifo_depth = int_mark(marks::kFifoDepth);
  m.topology =
      noc::topology_from_string(marks.domain_mark_string(marks::kTopology))
          .value_or(m.topology);
  m.routing =
      noc::routing_from_string(marks.domain_mark_string(marks::kRouting))
          .value_or(m.routing);
  for (const auto& c : domain.classes()) {
    if (p.by_class_[c.id.value()] == marks::Target::kHardware) {
      p.tile_by_class_[c.id.value()] = m.index(
          static_cast<int>(marks.class_mark_int(c.name, marks::kTileX)),
          static_cast<int>(marks.class_mark_int(c.name, marks::kTileY)));
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
    mem.dram_tile = int_mark(marks::kDramTile);
    mem.sets = int_mark(marks::kCacheSets);
    mem.ways = int_mark(marks::kCacheWays);
    mem.line_bytes = int_mark(marks::kCacheLineBytes);
    mem.hit_latency = int_mark(marks::kCacheHitLatency);
    mem.t_rcd = int_mark(marks::kDramTRcd);
    mem.t_cas = int_mark(marks::kDramTCas);
    mem.t_rp = int_mark(marks::kDramTRp);
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
