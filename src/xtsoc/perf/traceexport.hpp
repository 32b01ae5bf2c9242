// Trace export to the Chrome trace-event JSON format (chrome://tracing,
// Perfetto): every instance becomes a "thread", dispatches become duration
// events, sends become flow-style instant events. Drop the output in a
// .json file and load it in any trace viewer.
#pragma once

#include <string>

#include "xtsoc/runtime/trace.hpp"
#include "xtsoc/xtuml/model.hpp"

namespace xtsoc::perf {

/// Render `trace` as Chrome trace-event JSON. `process_name` labels the
/// trace's "process" (e.g. "abstract", "hw", "sw"); `pid` separates several
/// exports merged into one file (concatenate the `traceEvents` arrays).
std::string export_chrome_trace(const runtime::Trace& trace,
                                const xtuml::Domain& domain,
                                const std::string& process_name, int pid = 1);

}  // namespace xtsoc::perf
