#include <gtest/gtest.h>

#include <bit>

#include "xtsoc/common/rng.hpp"
#include "xtsoc/mapping/classrefs.hpp"
#include "xtsoc/mapping/interface.hpp"
#include "xtsoc/mapping/modelcompiler.hpp"
#include "xtsoc/mapping/partition.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace xtsoc::mapping {
namespace {

using marks::MarkSet;
using marks::Target;
using xtuml::DataType;
using xtuml::Domain;
using xtuml::DomainBuilder;
using xtuml::Multiplicity;
using xtuml::ScalarValue;

/// Producer (software candidate) signals Consumer (hardware candidate) with
/// a typed payload including an instance reference; Consumer replies "done".
/// Classes are declared up front, then fleshed out via edit(), because they
/// refer to each other.
std::unique_ptr<Domain> make_domain() {
  DomainBuilder b("Pipe");
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
      .ref_attr("sink", "Consumer")
      .event("kick")
      .event("done", {{"ok", DataType::kBool}})
      .state("Idle")
      .state("Sending",
             "self.sent = self.sent + 1;\n"
             "generate work(units: self.sent, scale: 1.5, who: self) to "
             "self.sink;")
      .state("Waiting")
      .transition("Idle", "kick", "Sending")
      .transition("Sending", "done", "Waiting")
      .transition("Waiting", "kick", "Sending");
  return b.take();
}

struct Compiled {
  std::unique_ptr<Domain> domain;
  std::unique_ptr<oal::CompiledDomain> compiled;

  Compiled() : Compiled(make_domain()) {}
  explicit Compiled(std::unique_ptr<Domain> d) : domain(std::move(d)) {
    DiagnosticSink sink;
    compiled = oal::compile_domain(*domain, sink);
    if (!compiled) throw std::runtime_error(sink.to_string());
  }
};

// --- classrefs ---------------------------------------------------------------

TEST(ClassRefs, DistinguishesTouchFromSignal) {
  Compiled c;
  ClassId producer = c.domain->find_class_id("Producer");
  ClassId consumer = c.domain->find_class_id("Consumer");
  ClassRefs refs = collect_class_refs(*c.compiled, producer);
  // Producer touches only its own data but signals Consumer.
  EXPECT_TRUE(refs.touched.contains(producer));
  EXPECT_FALSE(refs.touched.contains(consumer));
  EXPECT_TRUE(refs.signaled.contains(consumer));
  ASSERT_EQ(refs.generates.size(), 1u);
  EXPECT_EQ(refs.generates.begin()->first, consumer);
}

TEST(ClassRefs, SelectAndRelateAreTouches) {
  DomainBuilder b("D");
  b.cls("A").attr("x", DataType::kInt);
  b.cls("B")
      .event("go")
      .state("S0")
      .state("S1",
             "select any a from instances of A;\n"
             "relate self to a across R1;\n"
             "select one back related by self->A[R1];")
      .transition("S0", "go", "S1");
  b.assoc("R1", "B", "uses", Multiplicity::kZeroOne, "A", "used_by",
          Multiplicity::kZeroOne);
  Compiled c(b.take());
  ClassRefs refs = collect_class_refs(*c.compiled, c.domain->find_class_id("B"));
  EXPECT_TRUE(refs.touched.contains(c.domain->find_class_id("A")));
  EXPECT_EQ(refs.associations.size(), 1u);
}

// --- partition ----------------------------------------------------------------

TEST(Partition, FromMarks) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  EXPECT_TRUE(p.is_hardware(c.domain->find_class_id("Consumer")));
  EXPECT_FALSE(p.is_hardware(c.domain->find_class_id("Producer")));
  EXPECT_EQ(p.hardware().size(), 1u);
  EXPECT_EQ(p.software().size(), 1u);
  EXPECT_FALSE(p.is_pure_software());
  EXPECT_TRUE(p.crosses_boundary(c.domain->find_class_id("Consumer"),
                                 c.domain->find_class_id("Producer")));
}

TEST(Partition, EmptyMarksIsPureSoftware) {
  Compiled c;
  Partition p = Partition::from_marks(*c.domain, MarkSet{});
  EXPECT_TRUE(p.is_pure_software());
}

TEST(ValidatePartition, SignalsMayCross) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  EXPECT_TRUE(validate_partition(*c.compiled, p, sink)) << sink.to_string();
}

TEST(ValidatePartition, DataAccessMayNotCross) {
  DomainBuilder b("D");
  b.cls("Hw").attr("reg", DataType::kInt);
  b.cls("Sw")
      .event("go")
      .state("S0")
      .state("S1", "select any h from instances of Hw;\nh.reg = 1;")
      .transition("S0", "go", "S1");
  Compiled c(b.take());
  MarkSet m;
  m.mark_hardware("Hw");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  EXPECT_FALSE(validate_partition(*c.compiled, p, sink));
  EXPECT_NE(sink.to_string().find("data_cross"), std::string::npos);
}

TEST(ValidatePartition, AssociationsMayNotCross) {
  DomainBuilder b("D");
  b.cls("Hw");
  b.cls("Sw");
  b.assoc("R1", "Hw", "x", Multiplicity::kZeroOne, "Sw", "y",
          Multiplicity::kZeroOne);
  Compiled c(b.take());
  MarkSet m;
  m.mark_hardware("Hw");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  EXPECT_FALSE(validate_partition(*c.compiled, p, sink));
  EXPECT_NE(sink.to_string().find("assoc_cross"), std::string::npos);
}

TEST(ValidatePartition, HardwareStringsRejected) {
  DomainBuilder b("D");
  b.cls("Hw").attr("label", DataType::kString);
  Compiled c(b.take());
  MarkSet m;
  m.mark_hardware("Hw");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  EXPECT_FALSE(validate_partition(*c.compiled, p, sink));
  EXPECT_NE(sink.to_string().find("hw_string"), std::string::npos);
}

TEST(ValidatePartition, HardwareStringLocalsRejected) {
  DomainBuilder b("D");
  b.cls("Hw")
      .event("go")
      .state("S0")
      .state("S1", "s = \"text\";")
      .transition("S0", "go", "S1");
  Compiled c(b.take());
  MarkSet m;
  m.mark_hardware("Hw");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  EXPECT_FALSE(validate_partition(*c.compiled, p, sink));
}

// --- interface synthesis --------------------------------------------------------

TEST(Interface, BoundaryMessagesOnly) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  EXPECT_FALSE(sink.has_errors()) << sink.to_string();

  // Two boundary messages: Consumer.work (sw->hw) and Producer.done (hw->sw).
  ASSERT_EQ(spec.message_count(), 2u);
  EXPECT_EQ(spec.count(Direction::kToHardware), 1u);
  EXPECT_EQ(spec.count(Direction::kToSoftware), 1u);

  const MessageLayout* work = spec.find(
      c.domain->find_class_id("Consumer"),
      c.domain->find_class("Consumer")->find_event("work")->id);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->direction, Direction::kToHardware);
  // _target(48) + units(32) + scale(64) + who(48)
  ASSERT_EQ(work->fields.size(), 4u);
  EXPECT_EQ(work->payload_bits, 48 + 32 + 64 + 48);
  EXPECT_EQ(work->fields[1].offset_bits, 48);
  EXPECT_EQ(work->fields[2].offset_bits, 80);
}

TEST(Interface, PureSoftwareHasNoMessages) {
  Compiled c;
  Partition p = Partition::from_marks(*c.domain, MarkSet{});
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, MarkSet{}, sink);
  EXPECT_EQ(spec.message_count(), 0u);
}

TEST(Interface, IntWidthMarkNarrowsFields) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  m.set_class_mark("Consumer", marks::kIntWidth, ScalarValue(std::int64_t{16}));
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  const MessageLayout* work = spec.find(
      c.domain->find_class_id("Consumer"),
      c.domain->find_class("Consumer")->find_event("work")->id);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->fields[1].width_bits, 16);
}

TEST(Interface, DigestStableAndSensitive) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec a = synthesize_interface(*c.compiled, p, m, sink);
  InterfaceSpec b = synthesize_interface(*c.compiled, p, m, sink);
  EXPECT_EQ(a.digest(*c.domain), b.digest(*c.domain));

  // Changing a width mark changes the interface digest.
  MarkSet m2 = m;
  m2.set_class_mark("Consumer", marks::kIntWidth, ScalarValue(std::int64_t{16}));
  InterfaceSpec n = synthesize_interface(*c.compiled, p, m2, sink);
  EXPECT_NE(a.digest(*c.domain), n.digest(*c.domain));
}

TEST(Interface, PayloadRoundTrip) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  const MessageLayout* work = spec.find(
      c.domain->find_class_id("Consumer"),
      c.domain->find_class("Consumer")->find_event("work")->id);
  ASSERT_NE(work, nullptr);

  runtime::InstanceHandle target{c.domain->find_class_id("Consumer"), 3, 1};
  runtime::InstanceHandle who{c.domain->find_class_id("Producer"), 9, 2};
  std::vector<runtime::Value> args = {
      runtime::Value(std::int64_t{-12345}), runtime::Value(2.75),
      runtime::Value(who)};
  auto bytes = encode_payload(*work, target, args);
  EXPECT_EQ(bytes.size(), static_cast<std::size_t>(work->payload_bytes()));

  DecodedPayload d = decode_payload(*work, bytes);
  EXPECT_EQ(d.target, target);
  ASSERT_EQ(d.args.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(d.args[0]), -12345);
  EXPECT_DOUBLE_EQ(std::get<double>(d.args[1]), 2.75);
  EXPECT_EQ(std::get<runtime::InstanceHandle>(d.args[2]), who);
}

TEST(Interface, NullHandleRoundTrip) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  const MessageLayout* work = &spec.messages()[0];
  std::vector<runtime::Value> args = {
      runtime::Value(std::int64_t{1}), runtime::Value(0.0),
      runtime::Value(runtime::InstanceHandle::null())};
  auto bytes = encode_payload(*work, runtime::InstanceHandle::null(), args);
  DecodedPayload d = decode_payload(*work, bytes);
  EXPECT_TRUE(d.target.is_null());
  EXPECT_TRUE(std::get<runtime::InstanceHandle>(d.args[2]).is_null());
}

TEST(Interface, NarrowIntSignExtends) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  m.set_class_mark("Consumer", marks::kIntWidth, ScalarValue(std::int64_t{8}));
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  const MessageLayout* work = &spec.messages()[0];
  std::vector<runtime::Value> args = {
      runtime::Value(std::int64_t{-5}), runtime::Value(0.0),
      runtime::Value(runtime::InstanceHandle::null())};
  auto bytes = encode_payload(*work, runtime::InstanceHandle::null(), args);
  DecodedPayload d = decode_payload(*work, bytes);
  EXPECT_EQ(std::get<std::int64_t>(d.args[0]), -5);
}

TEST(Interface, EncodeArgCountMismatchThrows) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  Partition p = Partition::from_marks(*c.domain, m);
  DiagnosticSink sink;
  InterfaceSpec spec = synthesize_interface(*c.compiled, p, m, sink);
  EXPECT_THROW(
      encode_payload(spec.messages()[0], runtime::InstanceHandle::null(), {}),
      std::runtime_error);
}

/// The codec before whole-field moves, one bit per step: the reference
/// the property test below holds the shipped codec to.
void reference_put(std::vector<std::uint8_t>& bytes, int offset, int width,
                   std::uint64_t value) {
  for (int i = 0; i < width; ++i) {
    if ((value >> i) & 1u) {
      const int bit = offset + i;
      bytes[static_cast<std::size_t>(bit / 8)] |=
          static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

std::uint64_t reference_get(const std::vector<std::uint8_t>& bytes,
                            int offset, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    const int bit = offset + i;
    if (bytes[static_cast<std::size_t>(bit / 8)] & (1u << (bit % 8))) {
      v |= std::uint64_t{1} << i;
    }
  }
  return v;
}

std::uint64_t reference_handle_bits(const runtime::InstanceHandle& h) {
  if (h.is_null()) return 0xffULL << 40;
  return (std::uint64_t{h.cls.value()} << 40) |
         (std::uint64_t{h.index} << 16) | h.generation;
}

TEST(Interface, WholeFieldCodecMatchesBitAtATimeReference) {
  Xorshift64Star rng = Xorshift64Star::seeded(2026);
  auto below = [&rng](std::uint64_t n) { return rng.next() % n; };
  auto random_handle = [&]() {
    if (below(8) == 0) return runtime::InstanceHandle::null();
    runtime::InstanceHandle h;
    h.cls = ClassId(static_cast<ClassId::underlying_type>(below(0xff)));
    h.index = static_cast<std::uint32_t>(below(1u << 24));
    h.generation = static_cast<std::uint32_t>(below(1u << 16));
    return h;
  };
  int straddling = 0;
  for (int layout_no = 0; layout_no < 400; ++layout_no) {
    MessageLayout layout;
    layout.name = "L" + std::to_string(layout_no);
    // The target handle always leads, as synthesize_interface lays it out;
    // the parameters follow, some after a gap of unused bits.
    layout.fields.push_back({"_target", DataType::kInstRef, 0, kHandleBits});
    int offset = kHandleBits + static_cast<int>(below(8));
    const int params = static_cast<int>(below(7));
    for (int i = 0; i < params; ++i) {
      FieldLayout f;
      f.name = "p" + std::to_string(i);
      switch (below(4)) {
        case 0: f.type = DataType::kBool; f.width_bits = 1; break;
        case 1:
          f.type = DataType::kInt;
          f.width_bits = 1 + static_cast<int>(below(64));
          break;
        case 2: f.type = DataType::kReal; f.width_bits = 64; break;
        default: f.type = DataType::kInstRef; f.width_bits = kHandleBits;
      }
      f.offset_bits = offset;
      if (offset / 8 != (offset + f.width_bits - 1) / 8) ++straddling;
      offset += f.width_bits + static_cast<int>(below(3) == 0 ? below(9) : 0);
      layout.fields.push_back(f);
    }
    layout.payload_bits = offset;

    const runtime::InstanceHandle target = random_handle();
    std::vector<runtime::Value> args;
    std::vector<std::uint8_t> want(
        static_cast<std::size_t>(layout.payload_bytes()), 0);
    reference_put(want, 0, kHandleBits, reference_handle_bits(target));
    for (std::size_t i = 1; i < layout.fields.size(); ++i) {
      const FieldLayout& f = layout.fields[i];
      std::uint64_t bits = 0;
      switch (f.type) {
        case DataType::kBool: {
          const bool b = below(2) == 1;
          args.emplace_back(b);
          bits = b ? 1 : 0;
          break;
        }
        case DataType::kInt: {
          // Any int64, negative ones included: the wire keeps the low
          // width bits and the decoder sign-extends them.
          const auto v = static_cast<std::int64_t>(rng.next());
          args.emplace_back(v);
          bits = static_cast<std::uint64_t>(v);
          if (f.width_bits < 64) bits &= (std::uint64_t{1} << f.width_bits) - 1;
          break;
        }
        case DataType::kReal: {
          const double d =
              std::bit_cast<double>(rng.next() & 0xbfefffffffffffffULL);
          args.emplace_back(d);
          bits = std::bit_cast<std::uint64_t>(d);
          break;
        }
        default: {
          const runtime::InstanceHandle h = random_handle();
          args.emplace_back(h);
          bits = reference_handle_bits(h);
        }
      }
      reference_put(want, f.offset_bits, f.width_bits, bits);
    }

    const std::vector<std::uint8_t> got = encode_payload(layout, target, args);
    ASSERT_EQ(got, want) << layout.name;
    const DecodedPayload d = decode_payload(layout, got);
    EXPECT_EQ(d.target, target) << layout.name;
    ASSERT_EQ(d.args.size(), args.size()) << layout.name;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const FieldLayout& f = layout.fields[i + 1];
      const std::uint64_t raw = reference_get(got, f.offset_bits, f.width_bits);
      switch (f.type) {
        case DataType::kBool:
          EXPECT_EQ(std::get<bool>(d.args[i]), std::get<bool>(args[i]));
          EXPECT_EQ(raw, std::get<bool>(args[i]) ? 1u : 0u);
          break;
        case DataType::kInt: {
          // The value the field can hold: the low width bits, sign-extended.
          const int drop = 64 - f.width_bits;
          const std::int64_t fit = static_cast<std::int64_t>(
                                       static_cast<std::uint64_t>(
                                           std::get<std::int64_t>(args[i]))
                                       << drop) >>
                                   drop;
          EXPECT_EQ(std::get<std::int64_t>(d.args[i]), fit)
              << layout.name << " width " << f.width_bits;
          break;
        }
        case DataType::kReal:
          EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<double>(d.args[i])),
                    std::bit_cast<std::uint64_t>(std::get<double>(args[i])));
          EXPECT_EQ(raw, std::bit_cast<std::uint64_t>(std::get<double>(args[i])));
          break;
        default:
          EXPECT_EQ(std::get<runtime::InstanceHandle>(d.args[i]),
                    std::get<runtime::InstanceHandle>(args[i]));
          EXPECT_EQ(raw, reference_handle_bits(
                             std::get<runtime::InstanceHandle>(args[i])));
      }
    }
  }
  EXPECT_GT(straddling, 400);  // many fields cross a byte boundary
}

// --- map_system -------------------------------------------------------------------

TEST(MapSystem, EndToEnd) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Consumer");
  m.set_class_mark("Consumer", marks::kClockDomain, ScalarValue(std::int64_t{1}));
  m.set_class_mark("Consumer", marks::kMaxInstances, ScalarValue(std::int64_t{8}));
  m.set_domain_mark(marks::kBusLatency, ScalarValue(std::int64_t{6}));
  DiagnosticSink sink;
  auto sys = map_system(*c.compiled, m, sink);
  ASSERT_NE(sys, nullptr) << sink.to_string();
  EXPECT_EQ(sys->bus_latency(), 6);
  const ClassMapping& cm = sys->mapping_of(c.domain->find_class_id("Consumer"));
  EXPECT_EQ(cm.target, Target::kHardware);
  EXPECT_EQ(cm.clock_domain, 1);
  EXPECT_EQ(cm.max_instances, 8);
  EXPECT_EQ(sys->interface().message_count(), 2u);
}

TEST(MapSystem, RejectsBadMarks) {
  Compiled c;
  MarkSet m;
  m.mark_hardware("Nope");
  DiagnosticSink sink;
  EXPECT_EQ(map_system(*c.compiled, m, sink), nullptr);
}

TEST(MapSystem, RejectsInvalidPartition) {
  DomainBuilder b("D");
  b.cls("Hw").attr("label", DataType::kString);
  Compiled c(b.take());
  MarkSet m;
  m.mark_hardware("Hw");
  DiagnosticSink sink;
  EXPECT_EQ(map_system(*c.compiled, m, sink), nullptr);
}

TEST(MapSystem, RepartitionOnlyMovesMarks) {
  // The repartitioning workflow: same compiled model, two mark sets, two
  // mapped systems. The model is untouched; only marks moved.
  Compiled c;
  MarkSet hw_consumer;
  hw_consumer.mark_hardware("Consumer");
  MarkSet hw_producer;
  hw_producer.mark_hardware("Producer");

  DiagnosticSink sink;
  auto sys1 = map_system(*c.compiled, hw_consumer, sink);
  auto sys2 = map_system(*c.compiled, hw_producer, sink);
  ASSERT_NE(sys1, nullptr) << sink.to_string();
  ASSERT_NE(sys2, nullptr) << sink.to_string();

  EXPECT_TRUE(sys1->partition().is_hardware(c.domain->find_class_id("Consumer")));
  EXPECT_TRUE(sys2->partition().is_hardware(c.domain->find_class_id("Producer")));

  auto diff = MarkSet::diff(hw_consumer, hw_producer);
  EXPECT_EQ(diff.size(), 2u);  // one mark removed, one added
}

}  // namespace
}  // namespace xtsoc::mapping
