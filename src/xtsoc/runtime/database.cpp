#include "xtsoc/runtime/database.hpp"

#include <algorithm>

#include "xtsoc/snap/io.hpp"

namespace xtsoc::runtime {

Database::Database(const xtuml::Domain& domain) : domain_(&domain) {
  slots_.resize(domain.class_count());
  free_list_.resize(domain.class_count());
  live_.resize(domain.class_count());
  links_.resize(domain.associations().size());
}

InstanceHandle Database::create(ClassId cls) {
  const xtuml::ClassDef& def = domain_->cls(cls);
  auto& pool = slots_[cls.value()];
  auto& free = free_list_[cls.value()];

  std::uint32_t index;
  if (!free.empty()) {
    index = free.back();
    free.pop_back();
  } else {
    index = static_cast<std::uint32_t>(pool.size());
    pool.emplace_back();
  }
  InstanceSlot& slot = pool[index];
  slot.alive = true;
  ++live_[cls.value()];
  slot.state = def.initial_state;
  slot.attrs.clear();
  slot.attrs.reserve(def.attributes.size());
  for (const auto& a : def.attributes) {
    slot.attrs.push_back(a.default_value ? from_scalar(*a.default_value)
                                         : default_value(a.type));
    fit_to_type(a.type, slot.attrs.back());  // an int default of a real widens
  }
  return {cls, index, slot.generation};
}

void Database::destroy(const InstanceHandle& h) {
  InstanceSlot& slot = deref(h);
  slot.alive = false;
  --live_[h.cls.value()];
  ++slot.generation;
  slot.attrs.clear();
  free_list_[h.cls.value()].push_back(h.index);

  // Drop all links touching the deleted instance.
  for (auto& bucket : links_) {
    std::erase_if(bucket, [&](const Link& l) { return l.a == h || l.b == h; });
  }
}

bool Database::is_alive(const InstanceHandle& h) const {
  return try_deref(h) != nullptr;
}

InstanceSlot* Database::try_deref(const InstanceHandle& h) {
  if (h.is_null() || h.cls.value() >= slots_.size()) return nullptr;
  auto& pool = slots_[h.cls.value()];
  if (h.index >= pool.size()) return nullptr;
  InstanceSlot& slot = pool[h.index];
  if (!slot.alive || slot.generation != h.generation) return nullptr;
  return &slot;
}

const InstanceSlot* Database::try_deref(const InstanceHandle& h) const {
  return const_cast<Database*>(this)->try_deref(h);
}

InstanceSlot& Database::deref(const InstanceHandle& h) {
  InstanceSlot* s = try_deref(h);
  if (s == nullptr) {
    throw ModelError("dereference of null, stale or foreign handle " +
                     h.to_string());
  }
  return *s;
}

const InstanceSlot& Database::deref(const InstanceHandle& h) const {
  return const_cast<Database*>(this)->deref(h);
}

Value Database::get_attr(const InstanceHandle& h, AttributeId attr) const {
  return attr_ref(h, attr);
}

const Value& Database::attr_ref(const InstanceHandle& h,
                                AttributeId attr) const {
  const InstanceSlot& slot = deref(h);
  if (attr.value() >= slot.attrs.size()) {
    throw ModelError("attribute index out of range on " + h.to_string());
  }
  return slot.attrs[attr.value()];
}

void Database::set_attr(const InstanceHandle& h, AttributeId attr, Value v) {
  InstanceSlot& slot = deref(h);
  if (attr.value() >= slot.attrs.size()) {
    throw ModelError("attribute index out of range on " + h.to_string());
  }
  const xtuml::ClassDef& cls = domain_->cls(h.cls);
  const xtuml::AttributeDef& def = cls.attribute(attr);
  if (!fit_to_type(def.type, v)) {
    throw ModelError("attribute '" + cls.name + "." + def.name + "' is " +
                     xtuml::to_string(def.type) + ", cannot hold " +
                     type_name(v) + " " + to_string(v));
  }
  slot.attrs[attr.value()] = std::move(v);
}

StateId Database::current_state(const InstanceHandle& h) const {
  return deref(h).state;
}

void Database::set_state(const InstanceHandle& h, StateId s) {
  deref(h).state = s;
}

InstanceSet Database::all_of(ClassId cls) const {
  InstanceSet out;
  if (cls.value() >= slots_.size()) return out;
  const auto& pool = slots_[cls.value()];
  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    if (pool[i].alive) out.push_back({cls, i, pool[i].generation});
  }
  return out;
}

std::size_t Database::live_count(ClassId cls) const {
  return cls.value() < live_.size() ? live_[cls.value()] : 0;
}

std::size_t Database::live_count() const {
  std::size_t n = 0;
  for (const std::size_t c : live_) n += c;
  return n;
}

void Database::check_multiplicity(const xtuml::AssociationDef& def,
                                  const InstanceHandle& inst,
                                  bool inst_is_end_a) const {
  // `inst` sits at one end; the *other* end's multiplicity bounds how many
  // links `inst` may participate in.
  const xtuml::AssociationEnd& other = inst_is_end_a ? def.b : def.a;
  if (xtuml::is_many(other.mult)) return;
  const auto& bucket = links_[def.id.value()];
  for (const Link& l : bucket) {
    const InstanceHandle& at_end = inst_is_end_a ? l.a : l.b;
    if (at_end == inst) {
      throw ModelError("relate across " + def.name + ": instance " +
                       inst.to_string() +
                       " already linked and the far end multiplicity is " +
                       xtuml::to_string(other.mult));
    }
  }
}

void Database::relate(const InstanceHandle& a, const InstanceHandle& b,
                      AssociationId assoc) {
  const xtuml::AssociationDef& def = domain_->association(assoc);
  deref(a);
  deref(b);

  InstanceHandle ea = a;
  InstanceHandle eb = b;
  if (def.a.cls != a.cls || def.b.cls != b.cls) {
    // Caller gave (b, a) order; canonicalize. Reflexive associations always
    // take the caller's order.
    if (def.a.cls == b.cls && def.b.cls == a.cls && def.a.cls != def.b.cls) {
      std::swap(ea, eb);
    } else if (def.a.cls != a.cls || def.b.cls != b.cls) {
      throw ModelError("relate across " + def.name +
                       ": instance classes do not match association ends");
    }
  }

  auto& bucket = links_[assoc.value()];
  for (const Link& l : bucket) {
    if (l.a == ea && l.b == eb) {
      throw ModelError("relate across " + def.name + ": already related");
    }
  }
  check_multiplicity(def, ea, /*inst_is_end_a=*/true);
  check_multiplicity(def, eb, /*inst_is_end_a=*/false);
  bucket.push_back({ea, eb});
}

void Database::unrelate(const InstanceHandle& a, const InstanceHandle& b,
                        AssociationId assoc) {
  const xtuml::AssociationDef& def = domain_->association(assoc);
  auto& bucket = links_[assoc.value()];
  auto match = [&](const Link& l) {
    return (l.a == a && l.b == b) || (l.a == b && l.b == a);
  };
  auto it = std::find_if(bucket.begin(), bucket.end(), match);
  if (it == bucket.end()) {
    throw ModelError("unrelate across " + def.name + ": not related");
  }
  bucket.erase(it);
}

InstanceSet Database::related(const InstanceHandle& from,
                              AssociationId assoc) const {
  InstanceSet out;
  const auto& bucket = links_[assoc.value()];
  for (const Link& l : bucket) {
    if (l.a == from) out.push_back(l.b);
    if (l.b == from && !(l.a == from)) out.push_back(l.a);
  }
  return out;
}

std::size_t Database::link_count(AssociationId assoc) const {
  return links_[assoc.value()].size();
}

template <class Io, class Self>
void Database::layout(Io& io, Self& self) {
  // Minimum encodings: a slot is alive, generation, state and attr count;
  // a value its tag; a free-list entry a u32; a link two handles.
  io.expect(std::uint64_t{self.slots_.size()},
            "database snapshot class count mismatch");
  for (auto& cls_slots : self.slots_) {
    io.seq(cls_slots, 1 + 4 + 4 + 8, [&](auto& s) {
      io.boolean(s.alive);
      io.u32(s.generation);
      io.u32(s.state);
      io.seq(s.attrs, 1, [&](auto& v) { value_layout(io, v); });
    });
  }
  io.expect(std::uint64_t{self.free_list_.size()},
            "database snapshot class count mismatch");
  for (std::size_t c = 0; c < self.free_list_.size(); ++c) {
    // The next create reuses a listed slot: each must be a dead slot of
    // the class, listed once.
    std::vector<bool> listed;
    if constexpr (Io::kLoading) listed.assign(self.slots_[c].size(), false);
    io.seq(self.free_list_[c], 4, [&](auto& idx) {
      io.u32(idx);
      if constexpr (Io::kLoading) {
        const auto& slots = self.slots_[c];
        if (idx >= slots.size() || slots[idx].alive || listed[idx]) {
          throw snap::SnapError(
              "database snapshot frees slot " + std::to_string(idx) +
              " of class " + std::to_string(c) + ": not one of its " +
              std::to_string(slots.size()) +
              " slots, live, or listed twice");
        }
        listed[idx] = true;
      }
    });
  }
  io.expect(std::uint64_t{self.links_.size()},
            "database snapshot association count mismatch");
  for (auto& ll : self.links_) {
    io.seq(ll, 24, [&](auto& l) {
      handle_layout(io, l.a);
      handle_layout(io, l.b);
    });
  }
}

void Database::save_state(snap::Writer& w) const { layout(w, *this); }

void Database::load_state(snap::Reader& r) {
  layout(r, *this);
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    live_[c] = 0;
    for (const InstanceSlot& s : slots_[c]) live_[c] += s.alive ? 1 : 0;
  }
}

}  // namespace xtsoc::runtime
