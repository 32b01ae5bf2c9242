// Partition: the hardware/software split induced by the marks, plus the
// validity rules a split must satisfy before the model compiler accepts it.
#pragma once

#include <vector>

#include "xtsoc/common/diagnostics.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/noc/flit.hpp"
#include "xtsoc/oal/compiled.hpp"

namespace xtsoc::mapping {

/// Declared default of the int mark `key`, for the mark-mirroring fields
/// below (the marks table is the one place defaults are written).
consteval int mark_default(const char* key) {
  return static_cast<int>(marks::default_of(key));
}

/// Mesh interconnect geometry, derived from the domain-scope NoC marks.
/// Disabled (the legacy point-to-point bus) unless at least one class
/// carries tileX/tileY placement marks.
struct MeshSpec {
  bool enabled = false;
  int width = 1;
  int height = 1;
  /// Network shape and routing policy (`topology`/`routing` marks;
  /// marks::validate rejects unknown values).
  noc::TopologyKind topology = noc::TopologyKind::kMesh;
  noc::RoutePolicy routing = noc::RoutePolicy::kXY;
  int sw_x = 0, sw_y = 0;  ///< tile the software partition's CPU sits on
  /// cycles per router-to-router hop
  int link_latency = mark_default(marks::kLinkLatency);
  /// link width: payload bytes per flit
  int flit_bytes = mark_default(marks::kFlitBytes);
  /// router input-buffer depth (= credits)
  int fifo_depth = mark_default(marks::kFifoDepth);

  int tiles() const { return width * height; }
  int index(int x, int y) const { return y * width + x; }
  int sw_tile() const { return index(sw_x, sw_y); }
};

/// Memory-hierarchy shape, derived from the `dram.*`/`cache.*` domain marks.
/// Disabled unless `dram.tile` is present (and only meaningful on a mesh:
/// coherence messages are fabric frames). `sets == 0` means no `cache.sets`
/// mark was given: the hierarchy runs uncached against the DRAM edge.
struct MemSpec {
  bool enabled = false;
  int dram_tile = mark_default(marks::kDramTile);
  int sets = mark_default(marks::kCacheSets);
  int ways = mark_default(marks::kCacheWays);
  int line_bytes = mark_default(marks::kCacheLineBytes);
  int hit_latency = mark_default(marks::kCacheHitLatency);
  int t_rcd = mark_default(marks::kDramTRcd);
  int t_cas = mark_default(marks::kDramTCas);
  int t_rp = mark_default(marks::kDramTRp);
};

class Partition {
public:
  Partition() = default;

  /// Derive the split of `domain` from `marks` (unmarked = software),
  /// including the mesh placement when tile marks are present.
  static Partition from_marks(const xtuml::Domain& domain,
                              const marks::MarkSet& marks);

  marks::Target target_of(ClassId cls) const;
  bool is_hardware(ClassId cls) const {
    return target_of(cls) == marks::Target::kHardware;
  }

  const std::vector<ClassId>& software() const { return software_; }
  const std::vector<ClassId>& hardware() const { return hardware_; }
  bool is_pure_software() const { return hardware_.empty(); }
  bool is_pure_hardware() const { return software_.empty(); }

  /// True when `a` and `b` are mapped to different technologies.
  bool crosses_boundary(ClassId a, ClassId b) const {
    return target_of(a) != target_of(b);
  }

  // --- NoC placement ----------------------------------------------------------
  const MeshSpec& mesh() const { return mesh_; }
  const MemSpec& mem() const { return mem_; }
  /// Tile hosting `cls` (software classes live on the software tile).
  /// Always 0 when the mesh is disabled.
  int tile_of(ClassId cls) const;
  /// Tiles hosting at least one hardware class, ascending. One executable
  /// HwDomain is built per entry — the multi-domain growth of the mapping.
  std::vector<int> hardware_tiles() const;
  /// True when a signal between `a` and `b` must travel the interconnect:
  /// the classes live in different executors (different technology, or
  /// different tiles of the mesh).
  bool crosses_interconnect(ClassId a, ClassId b) const {
    return crosses_boundary(a, b) ||
           (mesh_.enabled && tile_of(a) != tile_of(b));
  }

  std::string to_string(const xtuml::Domain& domain) const;

private:
  std::vector<ClassId> software_;
  std::vector<ClassId> hardware_;
  std::vector<marks::Target> by_class_;  // indexed by ClassId
  MeshSpec mesh_;
  MemSpec mem_;
  std::vector<int> tile_by_class_;  // indexed by ClassId
};

/// Enforce the rules that make a partition realizable:
///   1. Data access (create/delete/select/relate/attr) must not cross the
///      boundary — partitions share no memory; only signals cross.
///   2. Associations must not span the boundary (links are data).
///   3. Hardware classes may not use string-typed attributes or event
///      parameters (no wire representation).
///   4. Hardware classes receiving signals from software must be signaled
///      by value-safe payloads (checked via rule 3 on their events).
/// Returns false and reports via `sink` if any rule is violated.
bool validate_partition(const oal::CompiledDomain& compiled,
                        const Partition& partition, DiagnosticSink& sink);

}  // namespace xtsoc::mapping
