#include "xtsoc/marks/marks.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <sstream>
#include <utility>

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

// Kind follows ScalarValue's alternatives: bool, int, real, string.
bool has_kind(const xtuml::ScalarValue& v, Kind kind) {
  return v.index() == static_cast<std::size_t>(kind) ||
         (kind == Kind::kNumber && std::holds_alternative<std::int64_t>(v));
}

const char* const kKindNames[] = {"a bool", "an int", "a number", "a string"};

double as_number(const xtuml::ScalarValue& v) {
  return std::holds_alternative<double>(v)
             ? std::get<double>(v)
             : static_cast<double>(std::get<std::int64_t>(v));
}

std::optional<std::int64_t> int_of(const std::optional<xtuml::ScalarValue>& v) {
  if (!v || !std::holds_alternative<std::int64_t>(*v)) return std::nullopt;
  return std::get<std::int64_t>(*v);
}

/// One element's marks, by key.
using ElementMarks = std::map<std::string, xtuml::ScalarValue>;

std::optional<std::int64_t> int_at(const ElementMarks& kv, const char* key) {
  auto it = kv.find(key);
  if (it == kv.end()) return std::nullopt;
  return int_of(it->second);
}

/// (tileX, tileY) when both are present and typed right.
std::optional<std::pair<std::int64_t, std::int64_t>> placement(
    const ElementMarks& kv) {
  auto x = int_at(kv, kTileX);
  auto y = int_at(kv, kTileY);
  if (!x || !y) return std::nullopt;
  return std::pair{*x, *y};
}

bool marked_hardware(const ElementMarks& kv) {
  auto it = kv.find(kIsHardware);
  return it != kv.end() && std::holds_alternative<bool>(it->second) &&
         std::get<bool>(it->second);
}

/// What follows the mark's name in the diagnostic when `v` (typed right)
/// is outside `spec`'s declared range; nullopt when it is inside, or when
/// the range depends on other marks.
std::optional<std::string> broken_rule(const MarkSpec& spec,
                                       const xtuml::ScalarValue& v) {
  if (spec.code == nullptr) return std::nullopt;
  auto got_and_why = [&] {
    return " (got " + xtuml::scalar_to_string(v) + ")" +
           (spec.reason != nullptr ? std::string("; ") + spec.reason : "");
  };
  if (spec.kind == Kind::kString) {
    const std::vector<std::string> choices = split(spec.choices, '|');
    if (std::find(choices.begin(), choices.end(), std::get<std::string>(v)) !=
        choices.end()) {
      return std::nullopt;
    }
    std::string list;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i > 0) list += i + 1 == choices.size() ? " or " : ", ";
      list += '"' + choices[i] + '"';
    }
    return " must be " + list + got_and_why();
  }
  if (spec.pow2) {
    const std::int64_t n = std::get<std::int64_t>(v);
    if (n > 0 && (n & (n - 1)) == 0) return std::nullopt;
    return " must be a positive power of two" + got_and_why();
  }
  const double x = as_number(v);
  if (x >= static_cast<double>(spec.min) &&
      x <= static_cast<double>(spec.max)) {
    return std::nullopt;
  }
  if (spec.max == kNoMax) {
    return " must be >= " + std::to_string(spec.min) + got_and_why();
  }
  return (spec.reason != nullptr ? std::string(" is ") + spec.reason + " and"
                                 : std::string()) +
         " must be in [" + std::to_string(spec.min) + ", " +
         std::to_string(spec.max) + "]";
}

/// Retired keys, and case/underscore near-misses of standard ones, warn;
/// any other key is a mapping's own and passes silently.
void check_nonstandard_key(const std::string& key, DiagnosticSink& sink) {
  if (std::find(std::begin(kRetiredKeys), std::end(kRetiredKeys), key) !=
      std::end(kRetiredKeys)) {
    sink.warning("marks.retired", "mark key '" + key +
                                      "' is retired: it selects no mapping "
                                      "rule and is ignored");
    return;
  }
  auto fold = [](std::string_view k) {
    std::string out;
    for (char ch : k) {
      if (ch == '_') continue;
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    }
    return out;
  };
  const std::string folded = fold(key);
  for (const MarkSpec& spec : kStandardMarks) {
    if (fold(spec.key) == folded) {
      sink.warning("marks.near_miss", "mark key '" + key +
                                          "' looks like a misspelled "
                                          "standard mark");
      return;
    }
  }
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

void MarkSet::clear_domain_mark(std::string_view key) {
  clear_class_mark(kDomainScope, key);
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
                                     std::string_view key) const {
  if (auto v = int_of(class_mark(class_name, key))) return *v;
  const MarkSpec* spec = find_standard(key);
  return spec != nullptr ? spec->fallback : 0;
}

std::int64_t MarkSet::domain_mark_int(std::string_view key) const {
  return class_mark_int(kDomainScope, key);
}

double MarkSet::domain_mark_number(std::string_view key) const {
  auto v = domain_mark(key);
  if (v && has_kind(*v, Kind::kNumber)) return as_number(*v);
  const MarkSpec* spec = find_standard(key);
  return spec != nullptr ? static_cast<double>(spec->fallback) : 0.0;
}

std::string MarkSet::domain_mark_string(std::string_view key) const {
  auto v = domain_mark(key);
  if (v && std::holds_alternative<std::string>(*v)) {
    return std::get<std::string>(*v);
  }
  const MarkSpec* spec = find_standard(key);
  if (spec == nullptr || spec->choices == nullptr) return {};
  return split(spec->choices, '|').front();
}

MeshShape MarkSet::mesh_shape() const {
  MeshShape m;
  std::int64_t max_x = 0, max_y = 0;
  for (const auto& [element, kv] : marks_) {
    if (element.empty()) continue;
    m.placed |= kv.contains(kTileX) || kv.contains(kTileY);
    if (auto t = placement(kv)) {  // capped: the +1 below cannot wrap
      max_x = std::max(max_x, std::min(t->first, kNoMax - 1));
      max_y = std::max(max_y, std::min(t->second, kNoMax - 1));
    }
  }
  m.width = int_of(domain_mark(kMeshWidth)).value_or(max_x + 1);
  m.height = int_of(domain_mark(kMeshHeight)).value_or(max_y + 1);
  m.sw_x = domain_mark_int(kSwTileX);
  m.sw_y = domain_mark_int(kSwTileY);
  return m;
}

Target MarkSet::target_of(std::string_view class_name) const {
  auto it = marks_.find(class_name);
  return it != marks_.end() && marked_hardware(it->second) ? Target::kHardware
                                                           : Target::kSoftware;
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
  // Each mark on its own: scope, type and range, as kStandardMarks declares.
  for (const auto& [element, kv] : marks_) {
    const bool domain_scope = element.empty();
    if (!domain_scope && domain.find_class(element) == nullptr) {
      sink.error("marks.unknown_class",
                 "mark on unknown class '" + element + "'");
      continue;
    }
    for (const auto& [key, value] : kv) {
      const MarkSpec* spec = find_standard(key);
      auto mark = [&] {
        return (domain_scope ? std::string("domain") : element) + "." + key;
      };
      if (spec == nullptr) {
        check_nonstandard_key(key, sink);
      } else if ((spec->scope == Scope::kDomain) != domain_scope) {
        sink.error("marks.scope", key + (domain_scope
                                             ? " is a class mark, not domain"
                                             : " is a domain mark, not class"));
      } else if (!has_kind(value, spec->kind)) {
        sink.error("marks.type", mark() + " must be " +
                                   kKindNames[static_cast<int>(spec->kind)]);
      } else if (auto rule = broken_rule(*spec, value)) {
        sink.error(spec->code, mark() + *rule);
      }
    }
  }

  // An inverted fault window would silently disarm every fault.
  {
    auto end = int_of(domain_mark(kFaultWindow));
    auto start = int_of(domain_mark(kFaultWindowStart));
    if (end && start && *end > 0 && *start >= *end) {
      sink.error("marks.fault_range",
                 "domain.faultWindow.start (" + std::to_string(*start) +
                     ") is after domain.faultWindow (" + std::to_string(*end) +
                     "); the window is empty");
    }
  }

  // NoC placement. Any tileX/tileY mark switches the mapping to the mesh
  // interconnect, so the placement must describe a buildable mesh.
  for (const auto& [element, kv] : marks_) {
    if (element.empty()) continue;
    const bool has_x = kv.contains(kTileX);
    const bool has_y = kv.contains(kTileY);
    if (has_x != has_y) {
      sink.error("marks.tile_pair",
                 "class '" + element + "' has " +
                     (has_x ? "tileX without tileY" : "tileY without tileX") +
                     "; a placement needs both coordinates");
    }
    auto t = placement(kv);
    if (!t) continue;  // unplaced, or typed wrong (reported above)
    if (t->first < 0 || t->second < 0) {
      sink.error("marks.tile_range", "class '" + element +
                                         "' is placed at negative tile (" +
                                         std::to_string(t->first) + "," +
                                         std::to_string(t->second) + ")");
    }
    if (!marked_hardware(kv)) {
      sink.warning("marks.tile_sw",
                   "class '" + element + "' has tile marks but is not "
                   "isHardware; software classes live on the software tile "
                   "and the placement is ignored");
    }
  }
  const MeshShape mesh = mesh_shape();
  const std::string mesh_name =
      std::to_string(mesh.width) + "x" + std::to_string(mesh.height);
  const MarkSpec& dims = *find_standard(kMeshWidth);
  const bool dims_ok = mesh.width >= dims.min && mesh.height >= dims.min &&
                       mesh.width <= dims.max && mesh.height <= dims.max;
  if (mesh.placed) {
    auto in_mesh = [&](std::int64_t x, std::int64_t y) {
      return x >= 0 && x < mesh.width && y >= 0 && y < mesh.height;
    };
    if (!dims_ok) {
      sink.error("marks.mesh_dims", "meshWidth/meshHeight must be in [" +
                                        std::to_string(dims.min) + ", " +
                                        std::to_string(dims.max) + "]");
    } else {
      if (!in_mesh(mesh.sw_x, mesh.sw_y)) {
        sink.error("marks.tile_range",
                   "software tile (" + std::to_string(mesh.sw_x) + "," +
                       std::to_string(mesh.sw_y) + ") is outside the " +
                       mesh_name + " mesh");
      }
      for (const auto& [element, kv] : marks_) {
        auto t = element.empty() ? std::nullopt : placement(kv);
        if (!t || t->first < 0 || t->second < 0) continue;
        const std::string at = "(" + std::to_string(t->first) + "," +
                               std::to_string(t->second) + ")";
        if (!in_mesh(t->first, t->second)) {
          sink.error("marks.tile_range", "class '" + element +
                                             "' is placed at tile " + at +
                                             ", outside the " + mesh_name +
                                             " mesh");
        } else if (t->first == mesh.sw_x && t->second == mesh.sw_y) {
          sink.error("marks.tile_clash", "class '" + element +
                                             "' is placed on tile " + at +
                                             ", which is the software tile");
        }
      }
    }
    // Placement must be total: an unplaced FSM bank has no router.
    for (const auto& [element, kv] : marks_) {
      if (!element.empty() && marked_hardware(kv) &&
          (!kv.contains(kTileX) || !kv.contains(kTileY))) {
        sink.error("marks.tile_missing",
                   "class '" + element + "' is isHardware but has no "
                   "tileX/tileY; every hardware class needs a tile once any "
                   "class is placed on the mesh");
      }
    }
  }

  // Shapes that can actually be wired, judged on the mesh shape above once
  // the mesh is described at all.
  const std::string topo = domain_mark_string(kTopology);
  if (mesh.placed || domain_mark(kMeshWidth) || domain_mark(kMeshHeight)) {
    if (topo == "ring" && mesh.height > 1) {
      sink.error("marks.topology",
                 "ring topology is one row, but the mesh is " + mesh_name +
                     "; set meshHeight = 1 or use torus");
    }
    if (topo == "torus" && (mesh.width < 2 || mesh.height < 2)) {
      sink.error("marks.topology",
                 "torus wraparound needs both dimensions >= 2, but the mesh "
                 "is " + mesh_name + "; a single wrapped row is a ring");
    }
  }
  // Adaptive routing picks ports by live credit, so the retransmit detour's
  // primary/fallback dimension orders do not exist under it.
  if (domain_mark_string(kRouting) == "adaptive") {
    for (const char* key :
         {kFaultRateFlitDrop, kFaultRateFlitCorrupt, kFaultRateLinkDown}) {
      if (domain_mark_number(key) > 0.0) {
        sink.error("marks.routing",
                   "domain.routing = \"adaptive\" cannot be combined with "
                   "domain." + std::string(key) +
                       " > 0: the fault retransmit path alternates "
                       "dimension orders, which adaptive routing replaces");
        break;
      }
    }
  }

  // The DRAM edge is a fabric endpoint: it needs a mesh, a tile inside it,
  // and no executor already on that tile.
  const bool has_dram = domain_mark(kDramTile).has_value();
  bool any_mem_mark = false;
  for (const char* key : {kDramTRcd, kDramTCas, kDramTRp, kCacheSets,
                          kCacheWays, kCacheLineBytes, kCacheHitLatency}) {
    any_mem_mark |= domain_mark(key).has_value();
  }
  if (any_mem_mark && !has_dram) {
    sink.error("marks.dram.missing_tile",
               "cache.*/dram.* marks need domain.dram.tile; without a DRAM "
               "edge tile there is no memory hierarchy to configure");
  }
  if (has_dram && !mesh.placed) {
    sink.error("marks.dram.requires_mesh",
               "domain.dram.tile needs a mesh-mapped domain (tileX/tileY "
               "placements); coherence messages are fabric frames");
  }
  const auto dt = int_of(domain_mark(kDramTile));
  if (dt && mesh.placed && dims_ok) {
    const std::string tile = "domain.dram.tile " + std::to_string(*dt);
    if (*dt < 0 || *dt >= mesh.width * mesh.height) {
      sink.error("marks.dram.tile",
                 tile + " is outside the " + mesh_name + " mesh");
    } else {
      if (*dt == mesh.sw_y * mesh.width + mesh.sw_x) {
        sink.error("marks.dram.tile_clash",
                   tile + " is the software tile; the DRAM edge needs an "
                          "unoccupied tile (its NIC is the directory)");
      }
      for (const auto& [element, kv] : marks_) {
        auto t = element.empty() ? std::nullopt : placement(kv);
        if (t && t->second * mesh.width + t->first == *dt) {
          sink.error("marks.dram.tile_clash",
                     tile + " collides with class '" + element +
                         "'; the DRAM edge needs an unoccupied tile");
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
