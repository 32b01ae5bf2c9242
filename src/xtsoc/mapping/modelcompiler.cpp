#include "xtsoc/mapping/modelcompiler.hpp"

namespace xtsoc::mapping {

std::unique_ptr<MappedSystem> map_system(const oal::CompiledDomain& compiled,
                                         const marks::MarkSet& marks,
                                         DiagnosticSink& sink) {
  const xtuml::Domain& domain = compiled.domain();

  if (!marks.validate(domain, sink)) return nullptr;

  Partition partition = Partition::from_marks(domain, marks);
  if (!validate_partition(compiled, partition, sink)) return nullptr;

  const std::size_t before = sink.error_count();
  InterfaceSpec interface =
      synthesize_interface(compiled, partition, marks, sink);
  if (sink.error_count() != before) return nullptr;

  std::vector<ClassMapping> maps;
  maps.reserve(domain.class_count());
  for (const auto& c : domain.classes()) {
    ClassMapping m;
    m.cls = c.id;
    m.target = partition.target_of(c.id);
    m.clock_domain =
        static_cast<int>(marks.class_mark_int(c.name, marks::kClockDomain));
    m.max_instances =
        static_cast<int>(marks.class_mark_int(c.name, marks::kMaxInstances));
    m.int_width =
        static_cast<int>(marks.class_mark_int(c.name, marks::kIntWidth));
    maps.push_back(m);
  }

  int bus_latency = static_cast<int>(marks.domain_mark_int(marks::kBusLatency));

  return std::make_unique<MappedSystem>(compiled, std::move(partition),
                                        std::move(interface), std::move(maps),
                                        bus_latency);
}

}  // namespace xtsoc::mapping
