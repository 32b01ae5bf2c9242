// Strongly-typed integer identifiers for model elements.
//
// Every metamodel entity (class, state, event, ...) is referred to by a
// small-integer id that indexes into its owning container. Wrapping the
// integer in a distinct type per entity kind prevents accidentally using,
// say, a StateId where an EventId is expected.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace xtsoc {

/// CRTP-free strong id. `Tag` is an empty struct naming the entity kind.
template <typename Tag>
class Id {
public:
  using underlying_type = std::uint32_t;

  constexpr Id() = default;
  constexpr explicit Id(underlying_type v) : value_(v) {}

  /// Sentinel meaning "no such entity".
  static constexpr Id invalid() {
    return Id(std::numeric_limits<underlying_type>::max());
  }

  constexpr bool is_valid() const { return value_ != invalid().value_; }
  constexpr underlying_type value() const { return value_; }

  friend constexpr bool operator==(Id a, Id b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) { return a.value_ < b.value_; }

private:
  underlying_type value_ = std::numeric_limits<underlying_type>::max();
};

struct ClassTag {};
struct AttributeTag {};
struct AssociationTag {};
struct StateTag {};
struct EventTag {};
struct TransitionTag {};
struct InstanceTag {};
struct SignalChannelTag {};
struct ProcessTag {};
struct HwSignalTag {};

using ClassId = Id<ClassTag>;
using AttributeId = Id<AttributeTag>;
using AssociationId = Id<AssociationTag>;
using StateId = Id<StateTag>;
using EventId = Id<EventTag>;
using TransitionId = Id<TransitionTag>;
using InstanceId = Id<InstanceTag>;
using ChannelId = Id<SignalChannelTag>;
using ProcessId = Id<ProcessTag>;
using HwSignalId = Id<HwSignalTag>;

}  // namespace xtsoc

namespace std {
template <typename Tag>
struct hash<xtsoc::Id<Tag>> {
  size_t operator()(xtsoc::Id<Tag> id) const noexcept {
    return std::hash<typename xtsoc::Id<Tag>::underlying_type>{}(id.value());
  }
};
}  // namespace std
