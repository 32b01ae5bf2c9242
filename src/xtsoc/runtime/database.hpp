// The instance database: object populations, attribute storage, and
// association links for one executing (sub)system.
//
// Slots are reused after deletion with a bumped generation counter, so stale
// handles are detected rather than silently aliasing a new instance.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "xtsoc/runtime/value.hpp"
#include "xtsoc/xtuml/model.hpp"

namespace xtsoc::runtime {

/// Thrown for model-level runtime errors: dangling handle, division by zero,
/// multiplicity violation, "can't happen" event, step-limit overrun.
class ModelError : public std::runtime_error {
public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

/// Storage for one live instance.
struct InstanceSlot {
  bool alive = false;
  std::uint32_t generation = 0;
  StateId state = StateId::invalid();
  std::vector<Value> attrs;
};

class Database {
public:
  explicit Database(const xtuml::Domain& domain);

  const xtuml::Domain& domain() const { return *domain_; }

  /// Create an instance with default attribute values, in the class's
  /// initial state (callers run the initial state's action separately).
  InstanceHandle create(ClassId cls);

  /// Delete an instance and drop every link that touches it.
  void destroy(const InstanceHandle& h);

  bool is_alive(const InstanceHandle& h) const;

  /// Dereference or throw ModelError on null/stale handles.
  InstanceSlot& deref(const InstanceHandle& h);
  const InstanceSlot& deref(const InstanceHandle& h) const;

  Value get_attr(const InstanceHandle& h, AttributeId attr) const;
  /// The stored value itself, read in place; valid until the next write
  /// to this instance's attributes or the next create/destroy.
  const Value& attr_ref(const InstanceHandle& h, AttributeId attr) const;
  /// Store `v`, fitted to the attribute's declared type (int widens to
  /// real); any other type mismatch throws ModelError naming the attribute.
  void set_attr(const InstanceHandle& h, AttributeId attr, Value v);

  StateId current_state(const InstanceHandle& h) const;
  void set_state(const InstanceHandle& h, StateId s);

  /// All live instances of `cls`, in creation order.
  InstanceSet all_of(ClassId cls) const;
  /// Live instances of `cls` (or of every class), kept by create/destroy
  /// and rebuilt by load_state, so reading it is O(1) per class.
  std::size_t live_count(ClassId cls) const;
  std::size_t live_count() const;

  // --- association links ----------------------------------------------------

  /// Link two instances across an association. Enforces the multiplicity of
  /// both ends (a "1" or "0..1" end may carry at most one link per instance).
  void relate(const InstanceHandle& a, const InstanceHandle& b,
              AssociationId assoc);
  void unrelate(const InstanceHandle& a, const InstanceHandle& b,
                AssociationId assoc);

  /// Instances reachable from `from` across `assoc` (either direction),
  /// in link-creation order.
  InstanceSet related(const InstanceHandle& from, AssociationId assoc) const;

  std::size_t link_count(AssociationId assoc) const;

  // --- checkpointing ---------------------------------------------------------
  /// Serialize the whole population: slots (with generations and free
  /// lists, so handle staleness survives a restore), attributes, links.
  /// load_state requires a database built from the same domain (class and
  /// association counts are checked) and replaces its population.
  void save_state(snap::Writer& w) const;
  void load_state(snap::Reader& r);

private:
  /// The checkpoint layout behind save_state and load_state (snap/io.hpp).
  template <class Io, class Self>
  static void layout(Io& io, Self& self);

  struct Link {
    InstanceHandle a;
    InstanceHandle b;
  };

  InstanceSlot* try_deref(const InstanceHandle& h);
  const InstanceSlot* try_deref(const InstanceHandle& h) const;
  void check_multiplicity(const xtuml::AssociationDef& def,
                          const InstanceHandle& inst, bool inst_is_end_a) const;

  const xtuml::Domain* domain_;
  std::vector<std::vector<InstanceSlot>> slots_;      // [class][index]
  std::vector<std::vector<std::uint32_t>> free_list_; // [class]
  std::vector<std::size_t> live_;                     // [class]
  std::vector<std::vector<Link>> links_;              // [association]
};

}  // namespace xtsoc::runtime
