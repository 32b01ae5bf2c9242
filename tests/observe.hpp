// The suite's one observation oracle for the co-simulation contract:
// traces, VCD, stats, report() and final model state are byte-identical
// under every engine, thread count, window and fault setting.
//
//   Recorder rec(cosim);          // attaches a VCD writer to the cycle hook
//   cosim.run_cycles(97);
//   Observed run = rec.take();    // every observable, as text
//   expect_identical(run, serial, "threads=8 window=0");
//
// Every byte-identity grid captures through Recorder and compares through
// expect_identical, so each compares the whole contract, not a subset.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "xtsoc/common/strings.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/hwsim/vcd.hpp"
#include "xtsoc/snap/io.hpp"

namespace xtsoc::testing {

/// The suite's one fingerprint of observable bytes: FNV-1a from the start
/// value every pin in the suite was taken with (the standard offset basis
/// short of its last digit), kept so that no pin moves.
inline std::uint64_t fnv1a(std::string_view bytes) {
  return xtsoc::fnv1a(bytes, 1469598103934665603ull);
}

/// Everything observable about one co-simulation run, rendered as text so
/// a mismatch can be located by line.
struct Observed {
  std::string hw_traces;  ///< every hardware domain's trace, in domain order
  std::string sw_trace;
  std::string vcd;
  std::uint64_t cycles = 0;
  /// report().to_json(2) with the config echo run.threads/run.window
  /// nulled: a restore may legitimately run under other knobs.
  std::string report;
  /// Each executor's Database::save_state bytes, hardware domains then
  /// software, as a hex dump of 32 bytes per line under a "hwN"/"sw" line.
  std::string state;
};

/// Captures one co-simulation's observables. The VCD covers the cycles
/// run between construction and take(); traces, report and state cover
/// the whole run (a restored run's traces ride its snapshot).
class Recorder {
public:
  explicit Recorder(cosim::CoSimulation& cs) : cs_(cs), vcd_(cs.hw_sim()) {
    cs_.set_cycle_hook([this](std::uint64_t) { vcd_.sample(); });
  }
  ~Recorder() { cs_.set_cycle_hook(nullptr); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  Observed take() const {
    Observed o;
    auto dump = [&o](const std::string& name, const runtime::Executor& exec) {
      snap::Writer w;
      exec.database().save_state(w);
      static const char kHex[] = "0123456789abcdef";
      o.state += name;
      for (std::size_t i = 0; i < w.data().size(); ++i) {
        o.state += i % 32 == 0 ? '\n' : ' ';
        o.state += kHex[w.data()[i] >> 4];
        o.state += kHex[w.data()[i] & 0xf];
      }
      o.state += '\n';
    };
    for (std::size_t i = 0; i < cs_.hw_domains().size(); ++i) {
      const runtime::Executor& exec = cs_.hw_domains()[i]->executor();
      o.hw_traces += exec.trace().to_string();
      dump("hw" + std::to_string(i), exec);
    }
    o.sw_trace = cs_.sw_executor().trace().to_string();
    dump("sw", cs_.sw_executor());
    o.vcd = vcd_.render();
    o.cycles = cs_.cycles();
    obs::Snapshot report = cs_.report();
    report["run"]["threads"] = nullptr;
    report["run"]["window"] = nullptr;
    o.report = report.to_json(2);
    return o;
  }

private:
  cosim::CoSimulation& cs_;
  hwsim::VcdWriter vcd_;
};

/// One expectation for one observable: on a mismatch, name it and show
/// the first differing line of each side instead of both documents.
inline void expect_same_text(const char* name, const std::string& a,
                             const std::string& b, const std::string& what) {
  if (a == b) return;
  std::size_t pos = 0;
  int line = 1;
  while (pos < a.size() && pos < b.size()) {
    const std::size_t ea = a.find('\n', pos);
    const std::size_t eb = b.find('\n', pos);
    if (ea != eb || a.compare(pos, ea - pos, b, pos, eb - pos) != 0) break;
    if (ea == std::string::npos) break;
    pos = ea + 1;
    ++line;
  }
  auto line_at = [pos](const std::string& s) -> std::string {
    if (pos >= s.size()) return "<end>";
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  ADD_FAILURE() << what << ": " << name << " differs at line " << line
                << "\n  a: " << line_at(a) << "\n  b: " << line_at(b);
}

/// A run that attached an optional component (a fault plan adds "faults")
/// ends its report with that component's section. Check the section
/// renders exactly as `want`, then cut it, so the rest of the run compares
/// with one that did not attach it.
inline void expect_and_cut_section(Observed& o, const std::string& name,
                                   const obs::JsonValue& want) {
  const std::size_t at = o.report.rfind(",\n  \"" + name + "\": ");
  ASSERT_NE(at, std::string::npos) << name << " section missing\n"
                                   << o.report;
  obs::JsonValue doc = obs::JsonValue::object();
  doc[name] = want;
  // The cut text is the one-member document `doc` minus its opening brace.
  EXPECT_EQ(o.report.substr(at + 1), doc.dump(2).substr(1)) << name;
  o.report = o.report.substr(0, at) + "\n}";
}

/// The whole contract: one expectation per observable.
inline void expect_identical(const Observed& a, const Observed& b,
                             const std::string& what) {
  expect_same_text("hw_traces", a.hw_traces, b.hw_traces, what);
  expect_same_text("sw_trace", a.sw_trace, b.sw_trace, what);
  expect_same_text("vcd", a.vcd, b.vcd, what);
  expect_same_text("cycles", std::to_string(a.cycles),
                   std::to_string(b.cycles), what);
  expect_same_text("report", a.report, b.report, what);
  expect_same_text("state", a.state, b.state, what);
}

}  // namespace xtsoc::testing
