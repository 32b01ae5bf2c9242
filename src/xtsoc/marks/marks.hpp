// Marks: lightweight, non-intrusive annotations held OUTSIDE the model
// (paper §3: "rather like sticky notes ... without polluting those models").
//
// A MarkSet maps model elements (addressed by class name, or the whole
// domain) to key/value marks. The partition is decided entirely by the
// `isHardware` mark; consequently "changing the partition is a matter of
// changing the placement of the marks" (§4) — operationally, a MarkSet diff.
//
// MarkSets serialize to a trivial line format so they can live in a file
// next to (but never inside) the model:
//
//   domain.busLatency = 4
//   Compressor.isHardware = true
//   Compressor.clockDomain = 1
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xtsoc/common/diagnostics.hpp"
#include "xtsoc/xtuml/model.hpp"

namespace xtsoc::marks {

/// Implementation technology a class is mapped to. Software is the default
/// for unmarked classes.
enum class Target { kSoftware, kHardware };

const char* to_string(Target t);

/// Standard mark keys. Unknown keys are permitted (mappings may define
/// their own) but validation warns about likely typos of these. What each
/// one means is declared once, in kStandardMarks below.
inline constexpr const char* kIsHardware = "isHardware";
inline constexpr const char* kClockDomain = "clockDomain";
inline constexpr const char* kMaxInstances = "maxInstances";
inline constexpr const char* kBusLatency = "busLatency";
inline constexpr const char* kIntWidth = "intWidth";
inline constexpr const char* kTileX = "tileX";
inline constexpr const char* kTileY = "tileY";
inline constexpr const char* kMeshWidth = "meshWidth";
inline constexpr const char* kMeshHeight = "meshHeight";
inline constexpr const char* kSwTileX = "swTileX";
inline constexpr const char* kSwTileY = "swTileY";
inline constexpr const char* kLinkLatency = "linkLatency";
inline constexpr const char* kFlitBytes = "flitBytes";
inline constexpr const char* kFifoDepth = "fifoDepth";
inline constexpr const char* kTopology = "topology";
inline constexpr const char* kRouting = "routing";
inline constexpr const char* kFaultSeed = "faultSeed";
inline constexpr const char* kFaultWindow = "faultWindow";
inline constexpr const char* kFaultWindowStart = "faultWindow.start";
inline constexpr const char* kFaultRateFlitDrop = "faultRate.flitDrop";
inline constexpr const char* kFaultRateFlitCorrupt = "faultRate.flitCorrupt";
inline constexpr const char* kFaultRateLinkDown = "faultRate.linkDown";
inline constexpr const char* kFaultRateBusError = "faultRate.busError";
inline constexpr const char* kDramTile = "dram.tile";
inline constexpr const char* kDramTRcd = "dram.tRCD";
inline constexpr const char* kDramTCas = "dram.tCAS";
inline constexpr const char* kDramTRp = "dram.tRP";
inline constexpr const char* kCacheSets = "cache.sets";
inline constexpr const char* kCacheWays = "cache.ways";
inline constexpr const char* kCacheLineBytes = "cache.lineBytes";
inline constexpr const char* kCacheHitLatency = "cache.hitLatency";

enum class Scope : std::uint8_t { kClass, kDomain };
/// Value type of a standard mark, in xtuml::ScalarValue's alternative
/// order. A number is a real, or an int read as one (so
/// "faultRate.flitDrop = 0" round-trips).
enum class Kind : std::uint8_t { kBool, kInt, kNumber, kString };

inline constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

/// Everything the compiler knows about one standard mark. validate() checks
/// scope, type and range from it; the readers take defaults from it.
struct MarkSpec {
  std::string_view key;
  Scope scope;
  Kind kind;
  std::int64_t fallback = 0;  ///< value of an absent bool/int/number mark
  std::int64_t min = 0;       ///< legal range, inclusive
  std::int64_t max = kNoMax;
  bool pow2 = false;          ///< int: also a power of two
  /// String: the allowed values, '|'-separated; the first is the default.
  const char* choices = nullptr;
  /// Diagnostic code for a value outside the range. nullptr when there is
  /// no range, or when it depends on other marks (the mesh) and validate()
  /// checks it with them.
  const char* code = nullptr;
  /// Why the range is what it is: "...must be >= 1 (got 0); <reason>", or
  /// for a bounded range "... is <reason> and must be in [0, 1]".
  const char* reason = nullptr;
};

// Placing ANY class on a tile switches the co-simulation interconnect from
// the point-to-point bus to the network (src/xtsoc/noc); the mesh is then
// meshWidth x meshHeight, or the bounding box of the placements. Fault
// rates are per-decision probabilities (src/xtsoc/fault). `dram.tile`
// attaches a DRAM edge model and a MESI directory at that unoccupied tile;
// without `cache.sets` the hierarchy runs uncached (src/xtsoc/mem).
inline constexpr MarkSpec kStandardMarks[] = {
    {.key = kIsHardware, .scope = Scope::kClass, .kind = Kind::kBool},
    {.key = kClockDomain, .scope = Scope::kClass, .kind = Kind::kInt,
     .code = "marks.clock_domain", .reason = "it divides the hardware clock"},
    {.key = kMaxInstances, .scope = Scope::kClass, .kind = Kind::kInt,
     .fallback = 64, .min = 1, .code = "marks.max_instances",
     .reason = "it sizes the instance pool"},
    {.key = kIntWidth, .scope = Scope::kClass, .kind = Kind::kInt,
     .fallback = 32, .min = 1, .max = 64, .code = "marks.int_width"},
    {.key = kTileX, .scope = Scope::kClass, .kind = Kind::kInt},
    {.key = kTileY, .scope = Scope::kClass, .kind = Kind::kInt},
    {.key = kBusLatency, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 4, .code = "marks.bus_latency",
     .reason = "a bus cannot deliver into the past"},
    {.key = kMeshWidth, .scope = Scope::kDomain, .kind = Kind::kInt,
     .min = 1, .max = 64},
    {.key = kMeshHeight, .scope = Scope::kDomain, .kind = Kind::kInt,
     .min = 1, .max = 64},
    {.key = kSwTileX, .scope = Scope::kDomain, .kind = Kind::kInt},
    {.key = kSwTileY, .scope = Scope::kDomain, .kind = Kind::kInt},
    {.key = kLinkLatency, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 1, .min = 1, .code = "marks.link_latency",
     .reason = "every mesh hop takes at least one cycle"},
    {.key = kFlitBytes, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 4, .min = 1, .code = "marks.flit_bytes",
     .reason = "a flit carries at least one byte"},
    {.key = kFifoDepth, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 4, .min = 1, .code = "marks.fifo_depth",
     .reason = "a router buffer holds at least one flit"},
    {.key = kTopology, .scope = Scope::kDomain, .kind = Kind::kString,
     .choices = "mesh|torus|ring", .code = "marks.topology"},
    {.key = kRouting, .scope = Scope::kDomain, .kind = Kind::kString,
     .choices = "xy|yx|adaptive", .code = "marks.routing"},
    {.key = kFaultSeed, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 1, .code = "marks.fault_range"},
    {.key = kFaultWindow, .scope = Scope::kDomain, .kind = Kind::kInt,
     .code = "marks.fault_range"},
    {.key = kFaultWindowStart, .scope = Scope::kDomain, .kind = Kind::kInt,
     .code = "marks.fault_range"},
    {.key = kFaultRateFlitDrop, .scope = Scope::kDomain, .kind = Kind::kNumber,
     .max = 1, .code = "marks.fault_range", .reason = "a probability"},
    {.key = kFaultRateFlitCorrupt, .scope = Scope::kDomain,
     .kind = Kind::kNumber, .max = 1, .code = "marks.fault_range",
     .reason = "a probability"},
    {.key = kFaultRateLinkDown, .scope = Scope::kDomain, .kind = Kind::kNumber,
     .max = 1, .code = "marks.fault_range", .reason = "a probability"},
    {.key = kFaultRateBusError, .scope = Scope::kDomain, .kind = Kind::kNumber,
     .max = 1, .code = "marks.fault_range", .reason = "a probability"},
    {.key = kDramTile, .scope = Scope::kDomain, .kind = Kind::kInt},
    {.key = kDramTRcd, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 2, .min = 1, .code = "marks.dram.range"},
    {.key = kDramTCas, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 2, .min = 1, .code = "marks.dram.range"},
    {.key = kDramTRp, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 2, .min = 1, .code = "marks.dram.range"},
    {.key = kCacheSets, .scope = Scope::kDomain, .kind = Kind::kInt,
     .min = 1, .pow2 = true, .code = "marks.cache.pow2",
     .reason = "cache indexing is bit-sliced"},
    {.key = kCacheWays, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 2, .min = 1, .pow2 = true, .code = "marks.cache.pow2",
     .reason = "cache indexing is bit-sliced"},
    {.key = kCacheLineBytes, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 64, .min = 1, .pow2 = true, .code = "marks.cache.pow2",
     .reason = "cache indexing is bit-sliced"},
    {.key = kCacheHitLatency, .scope = Scope::kDomain, .kind = Kind::kInt,
     .fallback = 1, .min = 1, .code = "marks.cache.range",
     .reason = "even a hit takes a cycle"},
};

/// The standard mark named `key`, or nullptr.
constexpr const MarkSpec* find_standard(std::string_view key) {
  for (const MarkSpec& s : kStandardMarks) {
    if (key == s.key) return &s;
  }
  return nullptr;
}

/// Declared default of standard mark `key`, at compile time (for the
/// structs that mirror marks).
consteval std::int64_t default_of(std::string_view key) {
  return find_standard(key)->fallback;
}

/// The mesh the placement marks describe: meshWidth x meshHeight where
/// given, else the bounding box of the class placements. `placed` is false
/// when no class carries tileX/tileY (the bus interconnect).
struct MeshShape {
  bool placed = false;
  std::int64_t width = 1;
  std::int64_t height = 1;
  std::int64_t sw_x = 0;  ///< tile the software partition's CPU sits on
  std::int64_t sw_y = 0;
};

/// One change between two MarkSets (the unit of "repartitioning cost").
struct MarkChange {
  std::string element;  ///< class name, or "domain"
  std::string key;
  std::optional<xtuml::ScalarValue> before;  ///< nullopt = mark added
  std::optional<xtuml::ScalarValue> after;   ///< nullopt = mark removed
};

struct MarkDiff {
  std::vector<MarkChange> changes;
  std::size_t size() const { return changes.size(); }
  bool empty() const { return changes.empty(); }
  std::string to_string() const;
};

class MarkSet {
public:
  MarkSet() = default;
  explicit MarkSet(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- writing ---------------------------------------------------------------
  void set_class_mark(std::string_view class_name, std::string_view key,
                      xtuml::ScalarValue value);
  void set_domain_mark(std::string_view key, xtuml::ScalarValue value);
  void clear_class_mark(std::string_view class_name, std::string_view key);
  void clear_domain_mark(std::string_view key);

  /// Convenience for the one mark that decides the partition.
  void mark_hardware(std::string_view class_name, bool is_hw = true);

  // --- reading ---------------------------------------------------------------
  std::optional<xtuml::ScalarValue> class_mark(std::string_view class_name,
                                               std::string_view key) const;
  std::optional<xtuml::ScalarValue> domain_mark(std::string_view key) const;

  /// A standard int mark's value, or its declared default when
  /// absent or typed wrong. Non-standard keys read 0.
  std::int64_t class_mark_int(std::string_view class_name,
                              std::string_view key) const;
  std::int64_t domain_mark_int(std::string_view key) const;
  /// A standard number mark (a real, or an int read as one), or its default.
  double domain_mark_number(std::string_view key) const;
  /// A standard string mark's value, or its default (the first choice).
  std::string domain_mark_string(std::string_view key) const;

  /// The one derivation of the mesh shape; validate() checks it.
  MeshShape mesh_shape() const;

  Target target_of(std::string_view class_name) const;
  bool is_hardware(std::string_view class_name) const {
    return target_of(class_name) == Target::kHardware;
  }

  std::size_t mark_count() const;

  // --- the paper's repartitioning operation -----------------------------------
  static MarkDiff diff(const MarkSet& before, const MarkSet& after);

  /// Check marks against a model: unknown class names, the scope, type and
  /// range of each standard mark, near-miss key spellings, and the rules
  /// that span marks (placement, mesh shape, topology, DRAM tile). Returns
  /// false on errors.
  bool validate(const xtuml::Domain& domain, DiagnosticSink& sink) const;

  // --- persistence (marks live outside the model) ------------------------------
  std::string to_text() const;
  static MarkSet from_text(std::string_view text, DiagnosticSink& sink);

  friend bool operator==(const MarkSet&, const MarkSet&) = default;

private:
  // map<element, map<key, value>>; element "" = domain scope. Ordered maps
  // keep to_text() and diff() deterministic.
  std::string name_;
  std::map<std::string, std::map<std::string, xtuml::ScalarValue>,
           std::less<>> marks_;
};

}  // namespace xtsoc::marks
