// Project: the top-level API of the toolchain — everything the paper
// describes, end to end:
//
//   model (.xtm or built in C++)  ->  compile (validate + analyze actions)
//   + marks (.marks text)         ->  map (partition, interface synthesis)
//                                 ->  execute abstractly | co-simulate
//                                 ->  verify (formal test cases, both ways)
//                                 ->  generate C + VHDL
//                                 ->  measure, move a mark, repeat
//
// Examples and benchmarks program against this facade.
#pragma once

#include <memory>
#include <string_view>

#include "xtsoc/codegen/output.hpp"
#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/marks/marks.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/verify/testcase.hpp"

namespace xtsoc::core {

class Project {
public:
  /// Build from .xtm model text and .marks text (either may come from a
  /// file). Returns nullptr with diagnostics on any error.
  static std::unique_ptr<Project> from_xtm(std::string_view xtm_text,
                                           std::string_view marks_text,
                                           DiagnosticSink& sink);

  /// Build from an in-memory Domain (takes ownership).
  static std::unique_ptr<Project> from_domain(
      std::unique_ptr<xtuml::Domain> domain, marks::MarkSet marks,
      DiagnosticSink& sink);

  // --- accessors -------------------------------------------------------------
  const xtuml::Domain& domain() const { return *domain_; }
  const oal::CompiledDomain& compiled() const { return *compiled_; }
  const marks::MarkSet& marks() const { return marks_; }
  const mapping::MappedSystem& system() const { return *system_; }

  // --- the paper's repartitioning operation -----------------------------------
  /// Replace the mark set and re-map. The MODEL IS NOT TOUCHED — only the
  /// mapping artifacts are rebuilt. Returns the mark diff (the entire cost
  /// of the repartition) or nullopt if the new marks are invalid (the old
  /// mapping stays in effect).
  std::optional<marks::MarkDiff> repartition(marks::MarkSet new_marks,
                                             DiagnosticSink& sink);

  // --- execution ---------------------------------------------------------------
  std::unique_ptr<runtime::Executor> make_abstract_executor(
      runtime::ExecutorConfig config = {}) const;
  std::unique_ptr<cosim::CoSimulation> make_cosim(
      cosim::CoSimConfig config = {}) const;

  // --- verification --------------------------------------------------------------
  verify::RunReport run_model_test(const verify::TestCase& test) const;
  verify::ConformanceReport run_conformance(
      const verify::TestCase& test) const;

  // --- code generation ------------------------------------------------------------
  codegen::Output generate_c(DiagnosticSink& sink) const;
  codegen::Output generate_vhdl(DiagnosticSink& sink) const;
  /// Both halves at once.
  codegen::Output generate_all(DiagnosticSink& sink) const;

  // --- reporting -------------------------------------------------------------------
  /// One-paragraph description: classes, partition, interface size.
  std::string summary() const;

private:
  Project() = default;
  bool map(DiagnosticSink& sink);

  std::unique_ptr<xtuml::Domain> domain_;
  std::unique_ptr<oal::CompiledDomain> compiled_;
  marks::MarkSet marks_;
  std::unique_ptr<mapping::MappedSystem> system_;
};

}  // namespace xtsoc::core
