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

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "xtsoc/common/diagnostics.hpp"
#include "xtsoc/xtuml/model.hpp"

namespace xtsoc::marks {

/// Implementation technology a class is mapped to. Software is the default
/// for unmarked classes.
enum class Target { kSoftware, kHardware };

const char* to_string(Target t);

/// Well-known mark keys. Unknown keys are permitted (mappings may define
/// their own) but validation warns about likely typos of these.
inline constexpr const char* kIsHardware = "isHardware";    // bool, class
inline constexpr const char* kClockDomain = "clockDomain";  // int, class
inline constexpr const char* kMaxInstances = "maxInstances";// int, class (pool size)
inline constexpr const char* kBusLatency = "busLatency";    // int, domain
inline constexpr const char* kIntWidth = "intWidth";        // int, class (wire bits)

// NoC placement marks. Placing ANY class on a tile switches the
// co-simulation interconnect from the point-to-point bus to the 2D-mesh
// fabric (src/xtsoc/noc); moving a class between tiles is then the same
// marks-only operation as moving it between hardware and software.
inline constexpr const char* kTileX = "tileX";              // int, class (mesh column)
inline constexpr const char* kTileY = "tileY";              // int, class (mesh row)
inline constexpr const char* kMeshWidth = "meshWidth";      // int, domain
inline constexpr const char* kMeshHeight = "meshHeight";    // int, domain
inline constexpr const char* kSwTileX = "swTileX";          // int, domain (CPU tile)
inline constexpr const char* kSwTileY = "swTileY";          // int, domain
inline constexpr const char* kLinkLatency = "linkLatency";  // int, domain (cycles/hop)
inline constexpr const char* kFlitBytes = "flitBytes";      // int, domain (link width)
inline constexpr const char* kFifoDepth = "fifoDepth";      // int, domain (router buffers)
// Network shape and routing policy (consumed by noc::Topology). Strings:
// topology is "mesh" (default), "torus", or "ring"; routing is "xy"
// (default), "yx", or "adaptive". Validation enforces shape compatibility
// (torus needs both mesh dimensions >= 2, ring needs meshHeight == 1) and
// rejects adaptive routing combined with NoC fault rates.
inline constexpr const char* kTopology = "topology";        // string, domain
inline constexpr const char* kRouting = "routing";          // string, domain

// Fault-injection marks (domain scope; consumed by src/xtsoc/fault). A
// failure scenario is itself a platform decision, so it lives in the marks
// like every other one. Rates are per-decision probabilities in [0, 1],
// written as reals (or the ints 0/1).
inline constexpr const char* kFaultSeed = "faultSeed";      // int, domain (PRNG root)
inline constexpr const char* kFaultWindow = "faultWindow";  // int, domain (last cycle; 0 = whole run)
inline constexpr const char* kFaultWindowStart = "faultWindow.start";  // int, domain (first cycle)
inline constexpr const char* kFaultRateFlitDrop = "faultRate.flitDrop";
inline constexpr const char* kFaultRateFlitCorrupt = "faultRate.flitCorrupt";
inline constexpr const char* kFaultRateLinkDown = "faultRate.linkDown";
inline constexpr const char* kFaultRateBusError = "faultRate.busError";

// Memory-hierarchy marks (domain scope; consumed by src/xtsoc/mem). Placing
// `dram.tile` on a mesh-mapped domain attaches a DRAM edge model at that
// (unoccupied) tile and gives every executor tile a private cache wired to a
// MESI directory riding the fabric; the cache geometry and DRAM timing are
// then marks-only platform decisions like everything else. Without
// `cache.sets` the hierarchy runs uncached (every access is a DRAM round
// trip) — the baseline the bench suite compares against.
inline constexpr const char* kDramTile = "dram.tile";        // int, domain (edge tile)
inline constexpr const char* kDramTRcd = "dram.tRCD";        // int, domain (activate cycles)
inline constexpr const char* kDramTCas = "dram.tCAS";        // int, domain (column cycles)
inline constexpr const char* kDramTRp = "dram.tRP";          // int, domain (precharge cycles)
inline constexpr const char* kCacheSets = "cache.sets";      // int, domain (power of two)
inline constexpr const char* kCacheWays = "cache.ways";      // int, domain (power of two)
inline constexpr const char* kCacheLineBytes = "cache.lineBytes";  // int, domain (power of two)
inline constexpr const char* kCacheHitLatency = "cache.hitLatency";  // int, domain (cycles)

/// Every standard key, by scope: validation type-checks these and warns on
/// near-miss spellings of them.
inline constexpr const char* kStandardClassKeys[] = {
    kIsHardware, kClockDomain, kMaxInstances, kIntWidth, kTileX, kTileY};
inline constexpr const char* kStandardDomainKeys[] = {
    kBusLatency, kMeshWidth, kMeshHeight, kSwTileX, kSwTileY, kLinkLatency,
    kFlitBytes, kFifoDepth, kTopology, kRouting,
    kFaultSeed, kFaultWindow, kFaultWindowStart, kFaultRateFlitDrop,
    kFaultRateFlitCorrupt, kFaultRateLinkDown, kFaultRateBusError,
    kDramTile, kDramTRcd, kDramTCas, kDramTRp,
    kCacheSets, kCacheWays, kCacheLineBytes, kCacheHitLatency};

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

  /// Convenience for the one mark that decides the partition.
  void mark_hardware(std::string_view class_name, bool is_hw = true);

  // --- reading ---------------------------------------------------------------
  std::optional<xtuml::ScalarValue> class_mark(std::string_view class_name,
                                               std::string_view key) const;
  std::optional<xtuml::ScalarValue> domain_mark(std::string_view key) const;

  /// Int-valued mark with a default.
  std::int64_t class_mark_int(std::string_view class_name, std::string_view key,
                              std::int64_t fallback) const;
  std::int64_t domain_mark_int(std::string_view key, std::int64_t fallback) const;

  Target target_of(std::string_view class_name) const;
  bool is_hardware(std::string_view class_name) const {
    return target_of(class_name) == Target::kHardware;
  }

  std::size_t mark_count() const;

  // --- the paper's repartitioning operation -----------------------------------
  static MarkDiff diff(const MarkSet& before, const MarkSet& after);

  /// Check marks against a model: unknown class names, wrongly-typed
  /// standard marks, near-miss key spellings. Returns false on errors.
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
