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

template <class Io, class Self>
void Trace::layout(Io& io, Self& self) {
  const auto value = [&](auto& v) { value_layout(io, v); };
  io.boolean(self.enabled_);
  // Smallest encodings: an event is kind, tick, two handles, four ids, the
  // value flag, the arg count and the text length; a value is its tag.
  io.seq(self.events_, 1 + 8 + 12 + 12 + 16 + 1 + 8 + 8, [&](auto& e) {
    io.u8(e.kind);
    io.u64(e.tick);
    handle_layout(io, e.subject);
    handle_layout(io, e.peer);
    io.u32(e.event);
    io.u32(e.from_state);
    io.u32(e.to_state);
    io.u32(e.attr);
    bool has_value = e.value.has_value();
    io.boolean(has_value);
    if constexpr (Io::kLoading) {
      if (has_value) e.value.emplace();
    }
    if (has_value) value(*e.value);
    io.seq(e.args, 1, value);
    io.str(e.text);
  });
}

void Trace::save_state(snap::Writer& w) const { layout(w, *this); }

void Trace::load_state(snap::Reader& r) { layout(r, *this); }

}  // namespace xtsoc::runtime
