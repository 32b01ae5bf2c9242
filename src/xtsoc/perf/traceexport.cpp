#include "xtsoc/perf/traceexport.hpp"

#include <map>

#include "xtsoc/obs/json.hpp"

namespace xtsoc::perf {

using obs::JsonWriter;
using runtime::InstanceHandle;
using runtime::TraceEvent;
using runtime::TraceKind;

std::string export_chrome_trace(const runtime::Trace& trace,
                                const xtuml::Domain& domain,
                                const std::string& process_name, int pid) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Process metadata.
  w.begin_object()
      .field("name", "process_name")
      .field("ph", "M")
      .field("pid", pid)
      .key("args")
      .begin_object()
      .field("name", process_name)
      .end_object()
      .end_object();

  // Thread (= instance) metadata, assigned on first appearance.
  std::map<InstanceHandle, int> tids;
  auto tid_of = [&](const InstanceHandle& h) {
    auto it = tids.find(h);
    if (it != tids.end()) return it->second;
    int tid = static_cast<int>(tids.size()) + 1;
    tids[h] = tid;
    std::string name = h.is_null()
                           ? std::string("<external>")
                           : domain.cls(h.cls).name + "#" +
                                 std::to_string(h.index);
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .key("args")
        .begin_object()
        .field("name", name)
        .end_object()
        .end_object();
    return tid;
  };

  for (const TraceEvent& ev : trace.events()) {
    switch (ev.kind) {
      case TraceKind::kDispatch: {
        const xtuml::ClassDef& cls = domain.cls(ev.subject.cls);
        w.begin_object()
            .field("name", cls.event(ev.event).name)
            .field("cat", "dispatch")
            .field("ph", "X")
            .field("pid", pid)
            .field("tid", tid_of(ev.subject))
            .field("ts", ev.tick)
            .field("dur", 1)
            .key("args")
            .begin_object()
            .field("to_state", cls.state(ev.to_state).name)
            .end_object()
            .end_object();
        break;
      }
      case TraceKind::kSend: {
        const xtuml::ClassDef& cls = domain.cls(ev.subject.cls);
        w.begin_object()
            .field("name", "send " + cls.event(ev.event).name)
            .field("cat", "signal")
            .field("ph", "i")
            .field("s", "t")
            .field("pid", pid)
            .field("tid", tid_of(ev.peer))
            .field("ts", ev.tick)
            .end_object();
        break;
      }
      case TraceKind::kCreate:
      case TraceKind::kDelete: {
        w.begin_object()
            .field("name", to_string(ev.kind))
            .field("cat", "lifecycle")
            .field("ph", "i")
            .field("s", "t")
            .field("pid", pid)
            .field("tid", tid_of(ev.subject))
            .field("ts", ev.tick)
            .end_object();
        break;
      }
      case TraceKind::kLog: {
        w.begin_object()
            .field("name", ev.text)
            .field("cat", "log")
            .field("ph", "i")
            .field("s", "t")
            .field("pid", pid)
            .field("tid", tid_of(ev.subject))
            .field("ts", ev.tick)
            .end_object();
        break;
      }
      default:
        break;  // attr writes and ignored events stay out of the viewer
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace xtsoc::perf
