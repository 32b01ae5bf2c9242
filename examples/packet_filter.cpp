// Packet-filter SoC: the paper's full workflow on one page.
//
//   1. Model a packet pipeline (classifier -> crypto -> sink) with NO
//      hardware/software decision anywhere in the model.
//   2. Run it all-software, measure, and let the advisor find the hot spot.
//   3. Move ONE mark (isHardware on the hot class), remap, re-run.
//   4. Compare: same functional results, different cycle counts — and the
//      entire "redesign" was a one-line mark diff (paper §4: "Changing the
//      partition is a matter of changing the placement of the marks").
//
//   $ ./packet_filter

#include <cstdio>

#include "xtsoc/core/project.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/xtuml/builder.hpp"

using namespace xtsoc;
using runtime::InstanceHandle;
using runtime::Value;

namespace {

std::unique_ptr<xtuml::Domain> make_packet_soc() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("PacketSoc");
  b.cls("Classifier", "CLS");
  b.cls("Crypto", "CRY");
  b.cls("Sink", "SNK");

  b.edit("Classifier")
      .attr("seen", DataType::kInt)
      .ref_attr("crypto", "Crypto")
      .ref_attr("sink", "Sink")
      .event("packet", {{"len", DataType::kInt}, {"seq", DataType::kInt}})
      .state("Classify",
             "self.seen = self.seen + 1;\n"
             "if (param.len % 2 == 0)\n"
             "  generate encrypt(seq: param.seq, len: param.len) to "
             "self.crypto;\n"
             "else\n"
             "  generate deliver(seq: param.seq, check: param.len) to "
             "self.sink;\n"
             "end if;")
      .transition("Classify", "packet", "Classify");

  // Crypto does the heavy lifting: a per-packet work loop. This is the
  // class the measurements will finger as the hardware candidate.
  b.edit("Crypto")
      .attr("done_count", DataType::kInt)
      .ref_attr("sink", "Sink")
      .event("encrypt", {{"seq", DataType::kInt}, {"len", DataType::kInt}})
      .state("Scramble",
             "key = 5;\n"
             "acc = param.seq;\n"
             "round = 0;\n"
             "while (round < param.len)\n"
             "  acc = (acc * 31 + key) % 65537;\n"
             "  round = round + 1;\n"
             "end while;\n"
             "self.done_count = self.done_count + 1;\n"
             "generate deliver(seq: param.seq, check: acc) to self.sink;")
      .transition("Scramble", "encrypt", "Scramble");

  b.edit("Sink")
      .attr("received", DataType::kInt)
      .attr("checksum", DataType::kInt)
      .event("deliver", {{"seq", DataType::kInt}, {"check", DataType::kInt}})
      .state("Collect",
             "self.received = self.received + 1;\n"
             "self.checksum = (self.checksum + param.check) % 1000000007;")
      .transition("Collect", "deliver", "Collect");
  return b.take();
}

struct RunResult {
  std::uint64_t cycles = 0;
  std::int64_t received = 0;
  std::int64_t checksum = 0;
  obs::Snapshot report;
};

RunResult run_workload(core::Project& project, int packets) {
  cosim::CoSimConfig cfg;
  cfg.sw_steps_per_cycle = 8;
  cfg.sw_ops_per_cycle = 64;  // a modest embedded core
  auto cosim = project.make_cosim(cfg);
  InstanceHandle sink = cosim->create("Sink");
  InstanceHandle crypto =
      cosim->create_with("Crypto", {{"sink", Value(sink)}});
  InstanceHandle classifier = cosim->create_with(
      "Classifier", {{"crypto", Value(crypto)}, {"sink", Value(sink)}});

  // Burst arrival: all packets hit the classifier at once, so completion
  // time is compute-bound — exactly the situation where the partition
  // decision matters.
  for (int i = 0; i < packets; ++i) {
    std::int64_t len = 16 + (i * 7) % 48;
    cosim->inject(classifier, "packet",
                  {Value(len), Value(static_cast<std::int64_t>(i))});
  }
  cosim->run(1'000'000);

  RunResult r;
  r.cycles = cosim->cycles();
  const xtuml::ClassDef& sink_cls = *project.domain().find_class("Sink");
  runtime::Executor& owner = cosim->executor_of(sink.cls);
  r.received = std::get<std::int64_t>(
      owner.database().get_attr(sink, sink_cls.find_attribute("received")->id));
  r.checksum = std::get<std::int64_t>(
      owner.database().get_attr(sink, sink_cls.find_attribute("checksum")->id));
  r.report = cosim->report();
  return r;
}

/// The report's per-domain and per-class activity, one line each.
void print_activity(const obs::Snapshot& report) {
  std::printf("%-12s %12s %12s\n", "domain", "dispatches", "ops");
  for (const obs::JsonValue& d : report.at("domains").as_array()) {
    std::printf("%-12s %12llu %12llu\n", d.at("name").as_string().c_str(),
                static_cast<unsigned long long>(d.at("dispatches").as_uint()),
                static_cast<unsigned long long>(d.at("ops").as_uint()));
  }
  std::printf("%-12s %-6s %12s %12s %6s\n", "class", "domain", "dispatches",
              "ops", "live");
  for (const obs::JsonValue& c : report.at("classes").as_array()) {
    std::printf("%-12s %-6s %12llu %12llu %6llu\n",
                c.at("name").as_string().c_str(),
                c.at("domain").as_string().c_str(),
                static_cast<unsigned long long>(c.at("dispatches").as_uint()),
                static_cast<unsigned long long>(c.at("ops").as_uint()),
                static_cast<unsigned long long>(c.at("live").as_uint()));
  }
}

}  // namespace

int main() {
  constexpr int kPackets = 200;
  DiagnosticSink sink;

  // Step 1: all-software (no marks at all).
  auto project =
      core::Project::from_domain(make_packet_soc(), marks::MarkSet{}, sink);
  if (!project) {
    std::fprintf(stderr, "model rejected:\n%s", sink.to_string().c_str());
    return 1;
  }
  std::printf("== step 1: all-software prototype ==\n%s\n",
              project->summary().c_str());

  RunResult sw = run_workload(*project, kPackets);
  print_activity(sw.report);

  // Step 2: measure -> the advisor fingers the hot class.
  cosim::RepartitionAdvice advice = cosim::suggest_repartition(sw.report);
  if (!advice.has_suggestion) {
    std::printf("advisor: nothing to move\n");
    return 0;
  }
  std::printf("\nadvisor: %s\n\n", advice.rationale.c_str());

  // Step 3: the repartition IS the mark diff. No model edits.
  marks::MarkSet accel = project->marks();
  accel.mark_hardware(advice.class_name);
  accel.set_domain_mark(marks::kBusLatency, xtuml::ScalarValue(std::int64_t{2}));
  auto diff = project->repartition(accel, sink);
  if (!diff) {
    std::fprintf(stderr, "repartition rejected:\n%s", sink.to_string().c_str());
    return 1;
  }
  std::printf("== step 2: repartition = mark diff (%zu changes) ==\n%s\n",
              diff->size(), diff->to_string().c_str());
  std::printf("%s\n", project->summary().c_str());

  RunResult hw = run_workload(*project, kPackets);
  print_activity(hw.report);
  std::printf("\n");

  // Step 4: same answers, different placement.
  std::printf("== step 3: results ==\n");
  std::printf("  %-22s %12s %12s\n", "", "all-sw", "accelerated");
  std::printf("  %-22s %12llu %12llu\n", "cycles",
              static_cast<unsigned long long>(sw.cycles),
              static_cast<unsigned long long>(hw.cycles));
  std::printf("  %-22s %12lld %12lld\n", "packets delivered",
              static_cast<long long>(sw.received),
              static_cast<long long>(hw.received));
  std::printf("  %-22s %12lld %12lld\n", "checksum",
              static_cast<long long>(sw.checksum),
              static_cast<long long>(hw.checksum));
  std::printf("  functional results %s; placement changed by a sticky note.\n",
              (sw.received == hw.received && sw.checksum == hw.checksum)
                  ? "IDENTICAL"
                  : "DIVERGED (bug!)");
  return sw.received == hw.received && sw.checksum == hw.checksum ? 0 : 1;
}
