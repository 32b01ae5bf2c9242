#include "xtsoc/obs/registry.hpp"

#include <algorithm>

#include "xtsoc/obs/json.hpp"

namespace xtsoc::obs {

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

TrackId Registry::track(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return TrackId{static_cast<std::uint32_t>(i + 1)};
  }
  tracks_.emplace_back(name);
  return TrackId{static_cast<std::uint32_t>(tracks_.size())};
}

const std::string& Registry::track_name(TrackId t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  static const std::string kUnknown = "?";
  if (!t.is_valid() || t.value > tracks_.size()) return kUnknown;
  return tracks_[t.value - 1];
}

std::size_t Registry::track_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracks_.size();
}

std::uint64_t Registry::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Registry::push_event(Event e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= event_capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(e));
}

void Registry::record_span(TrackId track, std::string name,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint64_t cycle) {
  Event e;
  e.track = track;
  e.phase = 'X';
  e.name = std::move(name);
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.cycle = cycle;
  push_event(std::move(e));
}

void Registry::record_instant(TrackId track, std::string name,
                              std::uint64_t ts_ns, std::uint64_t cycle) {
  Event e;
  e.track = track;
  e.phase = 'i';
  e.name = std::move(name);
  e.ts_ns = ts_ns;
  e.cycle = cycle;
  push_event(std::move(e));
}

void Registry::record_value(TrackId track, std::string series,
                            std::uint64_t ts_ns, double value) {
  Event e;
  e.track = track;
  e.phase = 'C';
  e.name = std::move(series);
  e.ts_ns = ts_ns;
  e.value = value;
  push_event(std::move(e));
}

std::size_t Registry::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Registry::set_event_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  event_capacity_ = cap;
}

namespace {

// One Chrome "thread" per track, all inside one process. Perfetto and
// chrome://tracing sort threads by tid, so tids follow track creation
// order and the timeline reads top-to-bottom: cosim, kernel, executors,
// noc.
constexpr int kPid = 1;

void write_event_common(JsonWriter& w, char phase, std::uint32_t tid,
                        std::string_view name, std::uint64_t ts_ns) {
  w.field("name", name);
  w.field("ph", std::string_view(&phase, 1));
  // Trace-event timestamps are microseconds; keep sub-µs precision as a
  // fraction (viewers accept fractional ts).
  w.field("ts", static_cast<double>(ts_ns) / 1000.0);
  w.field("pid", kPid);
  w.field("tid", tid);
}

}  // namespace

std::string Registry::chrome_trace() const {
  std::vector<std::string> tracks;
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracks = tracks_;
    events = events_;
  }
  // Stable timeline: workers interleave event recording, so sort by
  // timestamp (then track) before emitting.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.track.value < b.track.value;
                   });

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  w.begin_object()
      .field("name", "process_name")
      .field("ph", "M")
      .field("pid", kPid)
      .key("args")
      .begin_object()
      .field("name", "xtsoc")
      .end_object()
      .end_object();
  // Metadata for every track, eventful or not — a run with tracing on but
  // no activity still shows its lanes.
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", kPid)
        .field("tid", static_cast<std::uint64_t>(i + 1))
        .key("args")
        .begin_object()
        .field("name", tracks[i])
        .end_object()
        .end_object();
  }
  for (const Event& e : events) {
    w.begin_object();
    write_event_common(w, e.phase, e.track.value, e.name, e.ts_ns);
    if (e.phase == 'X') {
      w.field("dur", static_cast<double>(e.dur_ns) / 1000.0);
    }
    if (e.phase == 'i') {
      w.field("s", "t");  // thread-scoped instant
    }
    if (e.phase == 'C') {
      w.key("args").begin_object().field("value", e.value).end_object();
    } else if (e.cycle != kNoCycle) {
      w.key("args").begin_object().field("cycle", e.cycle).end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  return w.take();
}

void Registry::write_chrome_trace(std::ostream& os) const {
  os << chrome_trace() << '\n';
}

}  // namespace xtsoc::obs
