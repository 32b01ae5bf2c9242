#include "xtsoc/runtime/trace.hpp"

#include <algorithm>
#include <sstream>

#include "xtsoc/snap/io.hpp"

namespace xtsoc::runtime {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kCreate: return "create";
    case TraceKind::kDelete: return "delete";
    case TraceKind::kSend: return "send";
    case TraceKind::kDispatch: return "dispatch";
    case TraceKind::kAttrWrite: return "attr";
    case TraceKind::kIgnored: return "ignored";
    case TraceKind::kLog: return "log";
  }
  return "?";
}

std::string TraceEvent::to_string() const {
  std::ostringstream os;
  os << "[t" << tick << "] " << runtime::to_string(kind) << ' '
     << subject.to_string();
  if (event.is_valid()) os << " ev#" << event.value();
  if (from_state.is_valid() || to_state.is_valid()) {
    os << " s#" << (from_state.is_valid() ? std::to_string(from_state.value()) : "-")
       << "->s#" << (to_state.is_valid() ? std::to_string(to_state.value()) : "-");
  }
  if (attr.is_valid()) os << " a#" << attr.value();
  if (value) os << " = " << runtime::to_string(*value);
  if (!args.empty()) {
    os << " (";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) os << ", ";
      os << runtime::to_string(args[i]);
    }
    os << ')';
  }
  if (!text.empty()) os << " \"" << text << '"';
  return os.str();
}

std::vector<TraceEvent> Trace::projection(const InstanceHandle& inst) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.subject == inst) out.push_back(e);
  }
  return out;
}

std::vector<InstanceHandle> Trace::subjects() const {
  std::vector<InstanceHandle> out;
  for (const auto& e : events_) {
    if (e.subject.is_null()) continue;
    if (std::find(out.begin(), out.end(), e.subject) == out.end()) {
      out.push_back(e.subject);
    }
  }
  return out;
}

std::string Trace::to_string() const {
  std::ostringstream os;
  for (const auto& e : events_) os << e.to_string() << '\n';
  return os.str();
}

void Trace::save_state(snap::Writer& w) const {
  w.boolean(enabled_);
  w.u64(events_.size());
  for (const TraceEvent& e : events_) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(e.tick);
    save_handle(w, e.subject);
    save_handle(w, e.peer);
    w.u32(e.event.value());
    w.u32(e.from_state.value());
    w.u32(e.to_state.value());
    w.u32(e.attr.value());
    w.boolean(e.value.has_value());
    if (e.value) save_value(w, *e.value);
    w.u64(e.args.size());
    for (const Value& v : e.args) save_value(w, v);
    w.str(e.text);
  }
}

void Trace::load_state(snap::Reader& r) {
  enabled_ = r.boolean();
  events_.clear();
  // Smallest encodings: an event is kind, tick, two handles, four ids, the
  // value flag, the arg count and the text length; a value is its tag.
  events_.resize(r.count(1 + 8 + 12 + 12 + 16 + 1 + 8 + 8));
  for (TraceEvent& e : events_) {
    e.kind = static_cast<TraceKind>(r.u8());
    e.tick = r.u64();
    e.subject = load_handle(r);
    e.peer = load_handle(r);
    e.event = EventId(r.u32());
    e.from_state = StateId(r.u32());
    e.to_state = StateId(r.u32());
    e.attr = AttributeId(r.u32());
    if (r.boolean()) e.value = load_value(r);
    e.args.resize(r.count(1));
    for (Value& v : e.args) v = load_value(r);
    e.text = r.str();
  }
}

}  // namespace xtsoc::runtime
