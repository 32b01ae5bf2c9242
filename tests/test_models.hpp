// Shared model-building helpers for tests and benchmarks.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/oal/compiled.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::testing {

/// Producer -> Consumer pipeline with a cross-class reply. Producer counts
/// kicks; Consumer accumulates units and replies done(ok). The `who`
/// parameter carries an instance reference across the (potential) boundary.
inline std::unique_ptr<xtuml::Domain> make_pipeline_domain() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Pipe");
  b.cls("Consumer", "CNS");
  b.cls("Producer", "PRD");
  b.edit("Consumer")
      .attr("total", DataType::kInt)
      .event("work", {{"units", DataType::kInt},
                      {"scale", DataType::kReal},
                      b.ref_param("who", "Producer")})
      .state("Ready",
             "self.total = self.total + param.units;\n"
             "generate done(ok: true) to param.who;")
      .transition("Ready", "work", "Ready");
  b.edit("Producer")
      .attr("sent", DataType::kInt)
      .attr("acks", DataType::kInt)
      .ref_attr("sink", "Consumer")
      .event("kick")
      .event("done", {{"ok", DataType::kBool}})
      .state("Idle")
      .state("Sending",
             "self.sent = self.sent + 1;\n"
             "generate work(units: self.sent, scale: 1.5, who: self) to "
             "self.sink;")
      .state("Waiting", "self.acks = self.acks + 1;")
      .transition("Idle", "kick", "Sending")
      .transition("Sending", "done", "Waiting")
      .transition("Waiting", "kick", "Sending");
  return b.take();
}

/// A software boss fanning jobs out to three hardware workers on separate
/// mesh tiles: three concurrently evaluated hardware clock domains, and
/// every job and every ack crosses the NoC.
inline std::unique_ptr<xtuml::Domain> make_fanout_domain() {
  using xtuml::DataType;
  xtuml::DomainBuilder b("Fan");
  b.cls("Boss", "BSS");
  for (int i = 0; i < 3; ++i) b.cls("W" + std::to_string(i));
  auto boss = b.edit("Boss");
  boss.attr("acks", DataType::kInt)
      .ref_attr("w0", "W0")
      .ref_attr("w1", "W1")
      .ref_attr("w2", "W2")
      .event("go")
      .event("done", {{"v", DataType::kInt}})
      .state("Idle")
      .state("Fanning",
             "generate job(n: 1, who: self) to self.w0;\n"
             "generate job(n: 2, who: self) to self.w1;\n"
             "generate job(n: 3, who: self) to self.w2;")
      .transition("Idle", "go", "Fanning")
      .transition("Fanning", "go", "Fanning");
  boss.state("Collect", "self.acks = self.acks + 1;")
      .transition("Fanning", "done", "Collect")
      .transition("Collect", "done", "Collect")
      .transition("Collect", "go", "Fanning");
  for (int i = 0; i < 3; ++i) {
    b.edit("W" + std::to_string(i))
        .attr("sum", DataType::kInt)
        .event("job", {{"n", DataType::kInt}, b.ref_param("who", "Boss")})
        .state("Work",
               "self.sum = self.sum + param.n;\n"
               "generate done(v: param.n) to param.who;")
        .transition("Work", "job", "Work");
  }
  return b.take();
}

/// The fanout workers' marks: W0, W1, W2 on tiles (1,0), (0,1), (1,1) of a
/// 2x2 mesh whose tile (0,0) is the CPU's.
inline marks::MarkSet fanout_mesh_marks() {
  marks::MarkSet m;
  const int tiles[3][2] = {{1, 0}, {0, 1}, {1, 1}};  // sw owns (0,0)
  for (int i = 0; i < 3; ++i) {
    std::string cls = "W" + std::to_string(i);
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX,
                     xtuml::ScalarValue(std::int64_t{tiles[i][0]}));
    m.set_class_mark(cls, marks::kTileY,
                     xtuml::ScalarValue(std::int64_t{tiles[i][1]}));
  }
  m.set_domain_mark(marks::kMeshWidth, xtuml::ScalarValue(std::int64_t{2}));
  m.set_domain_mark(marks::kMeshHeight, xtuml::ScalarValue(std::int64_t{2}));
  return m;
}

/// The fanout population: three workers and the Boss that refers to them.
struct FanoutHandles {
  runtime::InstanceHandle w0, w1, w2, boss;
};

/// Create W0..W2 and a Boss wired to them (any domain whose classes and
/// reference attributes are named like make_fanout_domain's).
inline FanoutHandles boot_fanout(cosim::CoSimulation& cs) {
  using runtime::Value;
  FanoutHandles h;
  h.w0 = cs.create("W0");
  h.w1 = cs.create("W1");
  h.w2 = cs.create("W2");
  h.boss = cs.create_with(
      "Boss", {{"w0", Value(h.w0)}, {"w1", Value(h.w1)}, {"w2", Value(h.w2)}});
  return h;
}

/// A compiled model plus its mapped system for a given mark set.
struct MappedFixture {
  std::unique_ptr<xtuml::Domain> domain;
  std::unique_ptr<oal::CompiledDomain> compiled;
  marks::MarkSet marks;
  std::unique_ptr<mapping::MappedSystem> system;

  MappedFixture(std::unique_ptr<xtuml::Domain> d, marks::MarkSet m)
      : domain(std::move(d)), marks(std::move(m)) {
    DiagnosticSink sink;
    compiled = oal::compile_domain(*domain, sink);
    if (!compiled) throw std::runtime_error("compile: " + sink.to_string());
    system = mapping::map_system(*compiled, marks, sink);
    if (!system) throw std::runtime_error("map: " + sink.to_string());
  }
};

}  // namespace xtsoc::testing
