// Runtime values of the abstract xtUML machine.
//
// A Value is what an OAL expression evaluates to: a scalar, an instance
// handle, or an instance set. Handles are *global* — (class, index,
// generation) — so the same handle is meaningful in every partition of a
// mapped system; only dereferencing requires the instance to live in the
// local database. This is what lets signals carry instance references across
// the hardware/software boundary.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "xtsoc/common/ids.hpp"
#include "xtsoc/xtuml/types.hpp"

namespace xtsoc::snap {
class Writer;
class Reader;
}  // namespace xtsoc::snap

namespace xtsoc::runtime {

/// Reference to a model instance. Invalid cls/idx means "empty reference".
struct InstanceHandle {
  ClassId cls = ClassId::invalid();
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  bool is_null() const { return !cls.is_valid(); }
  static InstanceHandle null() { return {}; }

  friend bool operator==(const InstanceHandle&, const InstanceHandle&) = default;
  friend bool operator<(const InstanceHandle& a, const InstanceHandle& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.index != b.index) return a.index < b.index;
    return a.generation < b.generation;
  }
  std::string to_string() const;
};

/// Result of `select many`: an ordered set of handles (selection order is
/// creation order, which keeps execution deterministic).
using InstanceSet = std::vector<InstanceHandle>;

/// monostate = "no value" (uninitialized / void).
using Value = std::variant<std::monostate, bool, std::int64_t, double,
                           std::string, InstanceHandle, InstanceSet>;

/// Zero-value for a declared data type (what attributes default to).
Value default_value(xtuml::DataType type);

/// Convert a metamodel scalar default into a runtime value.
Value from_scalar(const xtuml::ScalarValue& v);

/// Human-readable rendering, used by `log` and traces.
std::string to_string(const Value& v);

/// Truthiness: only defined for bool values.
bool as_bool(const Value& v);
std::int64_t as_int(const Value& v);
double as_real(const Value& v);  ///< accepts int or real
const InstanceHandle& as_handle(const Value& v);
const InstanceSet& as_set(const Value& v);

/// Structural equality following OAL semantics (int/real compare numerically).
bool value_equals(const Value& a, const Value& b);

/// Name of the type a value holds ("int", "real", "inst_ref", ...), for
/// error messages.
const char* type_name(const Value& v);

/// Fit `v` to a slot of declared type `type` (an attribute or an event
/// parameter): an int widens to real in place, and any other mismatch
/// returns false. Values that pass hold exactly their declared type, which
/// is what lets the walker evaluate on sema's types.
bool fit_to_type(xtuml::DataType type, Value& v);

// --- checkpointing -----------------------------------------------------------
// Values appear in every serialized runtime structure (attributes, queued
// signal payloads, trace events), so the byte encoding lives here, next to
// the type: a one-byte variant tag followed by the alternative's payload.
// Io is snap::Writer with a const operand or snap::Reader with a mutable
// one (snap/io.hpp; instantiated in value.cpp).
template <class Io, class H>
void handle_layout(Io& io, H& h);
template <class Io, class V>
void value_layout(Io& io, V& v);

}  // namespace xtsoc::runtime
