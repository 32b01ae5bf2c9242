// obs::Snapshot — a point-in-time stats report: one JSON document whose
// sections (sim stats, interconnect stats, per-domain executor stats, ...)
// come from each subsystem's JsonValue adapter. CoSimulation::report() and
// fault::CampaignResult::to_snapshot() build it, and everything downstream
// (xtsocc --obs=snapshot, the repartition advisor, tests) consumes this one
// document instead of N bespoke printers.
#pragma once

#include <ostream>
#include <string>

#include "xtsoc/obs/json.hpp"

namespace xtsoc::obs {

class Snapshot {
public:
  Snapshot() : root_(JsonValue::object()) {}
  explicit Snapshot(JsonValue root) : root_(std::move(root)) {}

  JsonValue& root() { return root_; }
  const JsonValue& root() const { return root_; }

  /// Section access: snapshot["sim"]["delta_cycles"].as_uint().
  JsonValue& operator[](std::string_view key) { return root_[key]; }
  const JsonValue& at(std::string_view key) const { return root_.at(key); }
  const JsonValue* find(std::string_view key) const { return root_.find(key); }

  /// Render as JSON. indent=0 gives the compact single-line form; indent>0
  /// pretty-prints (2 is what xtsocc uses for --obs=snapshot).
  std::string to_json(int indent = 0) const { return root_.dump(indent); }
  void write(std::ostream& os) const;

private:
  JsonValue root_;
};

}  // namespace xtsoc::obs
