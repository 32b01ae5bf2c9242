#include "xtsoc/mapping/interface.hpp"

#include <bit>
#include <sstream>

#include "xtsoc/common/strings.hpp"
#include "xtsoc/mapping/classrefs.hpp"

namespace xtsoc::mapping {

const char* to_string(Direction d) {
  return d == Direction::kToHardware ? "sw->hw" : "hw->sw";
}

const MessageLayout* InterfaceSpec::find(ClassId target_class,
                                         EventId event) const {
  for (const auto& m : messages_) {
    if (m.target_class == target_class && m.event == event) return &m;
  }
  return nullptr;
}

const MessageLayout* InterfaceSpec::find_opcode(std::uint32_t opcode) const {
  for (const auto& m : messages_) {
    if (m.opcode == opcode) return &m;
  }
  return nullptr;
}

std::size_t InterfaceSpec::count(Direction d) const {
  std::size_t n = 0;
  for (const auto& m : messages_) {
    if (m.direction == d) ++n;
  }
  return n;
}

std::string InterfaceSpec::canonical_text(const xtuml::Domain& domain) const {
  std::ostringstream os;
  for (const auto& m : messages_) {
    os << "msg " << m.opcode << ' ' << to_string(m.direction) << ' '
       << domain.cls(m.target_class).name << '.'
       << domain.cls(m.target_class).event(m.event).name << " bits="
       << m.payload_bits;
    for (const auto& f : m.fields) {
      os << ' ' << f.name << ':' << xtuml::to_string(f.type) << '@'
         << f.offset_bits << '+' << f.width_bits;
    }
    os << '\n';
  }
  return os.str();
}

std::string InterfaceSpec::digest(const xtuml::Domain& domain) const {
  return fnv1a_hex(canonical_text(domain));
}

namespace {

int width_of(xtuml::DataType type, int int_width) {
  switch (type) {
    case xtuml::DataType::kBool:
      return 1;
    case xtuml::DataType::kInt:
      return int_width;
    case xtuml::DataType::kReal:
      return 64;
    case xtuml::DataType::kInstRef:
      return kHandleBits;
    default:
      return 0;  // string / void are rejected before this is used
  }
}

}  // namespace

InterfaceSpec synthesize_interface(const oal::CompiledDomain& compiled,
                                   const Partition& partition,
                                   const marks::MarkSet& marks,
                                   DiagnosticSink& sink) {
  const xtuml::Domain& domain = compiled.domain();
  InterfaceSpec spec;

  // Collect boundary (target class, event) pairs. Iterating classes and
  // events in id order keeps opcode assignment deterministic, which keeps
  // digests stable — the property the cosim handshake relies on.
  std::vector<std::vector<bool>> boundary(domain.class_count());
  for (const auto& c : domain.classes()) {
    boundary[c.id.value()].resize(c.events.size(), false);
  }
  for (const auto& sender : domain.classes()) {
    ClassRefs refs = collect_class_refs(compiled, sender.id);
    for (const auto& [target, event] : refs.generates) {
      // Mesh-placed classes on different tiles need a wire message even
      // when both are hardware: tiles share no memory, only the network.
      if (partition.crosses_interconnect(sender.id, target)) {
        boundary[target.value()][event.value()] = true;
      }
    }
  }

  std::uint32_t next_opcode = 0;
  for (const auto& c : domain.classes()) {
    const int int_width =
        static_cast<int>(marks.class_mark_int(c.name, marks::kIntWidth));
    for (const auto& ev : c.events) {
      if (!boundary[c.id.value()][ev.id.value()]) continue;

      MessageLayout m;
      m.opcode = next_opcode++;
      m.target_class = c.id;
      m.event = ev.id;
      m.direction = partition.is_hardware(c.id) ? Direction::kToHardware
                                                : Direction::kToSoftware;
      m.name = c.name + "." + ev.name;

      int offset = 0;
      FieldLayout target_field;
      target_field.name = "_target";
      target_field.type = xtuml::DataType::kInstRef;
      target_field.offset_bits = offset;
      target_field.width_bits = kHandleBits;
      offset += kHandleBits;
      m.fields.push_back(target_field);

      for (const auto& p : ev.params) {
        if (p.type == xtuml::DataType::kString) {
          sink.error("mapping.iface.string",
                     "boundary message " + m.name + ": parameter '" + p.name +
                         "' is a string and cannot cross the hardware/"
                         "software boundary");
          continue;
        }
        FieldLayout f;
        f.name = p.name;
        f.type = p.type;
        f.offset_bits = offset;
        f.width_bits = width_of(p.type, int_width);
        offset += f.width_bits;
        m.fields.push_back(f);
      }
      m.payload_bits = offset;
      spec.messages_.push_back(std::move(m));
    }
  }
  return spec;
}

// --- bit-level serialization ---------------------------------------------------

namespace {

// The payload is a little-endian bit stream: bit k of the stream is bit
// k % 8 of byte k / 8. A field is moved whole, one byte per step: the
// first step covers the bits from the field's offset to the end of its
// first byte, every later step a whole byte.

class BitWriter {
public:
  explicit BitWriter(int total_bits)
      : bytes_(static_cast<std::size_t>((total_bits + 7) / 8), 0) {}

  void put(int offset, int width, std::uint64_t value) {
    if (width <= 0) return;
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    std::size_t b = static_cast<std::size_t>(offset) / 8;
    const int shift = offset % 8;
    bytes_[b] |= static_cast<std::uint8_t>(value << shift);
    value >>= 8 - shift;
    for (int done = 8 - shift; done < width; done += 8) {
      bytes_[++b] |= static_cast<std::uint8_t>(value);
      value >>= 8;
    }
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
  std::vector<std::uint8_t> bytes_;
};

class BitReader {
public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint64_t get(int offset, int width) const {
    if (width <= 0) return 0;
    std::size_t b = static_cast<std::size_t>(offset) / 8;
    const int shift = offset % 8;
    std::uint64_t v = bytes_[b] >> shift;
    for (int got = 8 - shift; got < width; got += 8) {
      v |= static_cast<std::uint64_t>(bytes_[++b]) << got;
    }
    return width < 64 ? v & ((std::uint64_t{1} << width) - 1) : v;
  }

private:
  const std::vector<std::uint8_t>& bytes_;
};

std::uint64_t handle_to_bits(const runtime::InstanceHandle& h) {
  if (h.is_null()) return (0xffULL << 40);  // class=0xff marks null
  std::uint64_t cls = h.cls.value() & 0xffULL;
  std::uint64_t idx = h.index & 0xffffffULL;
  std::uint64_t gen = h.generation & 0xffffULL;
  return (cls << 40) | (idx << 16) | gen;
}

runtime::InstanceHandle handle_from_bits(std::uint64_t bits) {
  std::uint64_t cls = (bits >> 40) & 0xff;
  if (cls == 0xff) return runtime::InstanceHandle::null();
  runtime::InstanceHandle h;
  h.cls = ClassId(static_cast<ClassId::underlying_type>(cls));
  h.index = static_cast<std::uint32_t>((bits >> 16) & 0xffffff);
  h.generation = static_cast<std::uint32_t>(bits & 0xffff);
  return h;
}

std::uint64_t value_to_bits(const FieldLayout& f, const runtime::Value& v) {
  switch (f.type) {
    case xtuml::DataType::kBool:
      return runtime::as_bool(v) ? 1 : 0;
    case xtuml::DataType::kInt: {
      std::uint64_t raw = static_cast<std::uint64_t>(runtime::as_int(v));
      if (f.width_bits < 64) raw &= (1ULL << f.width_bits) - 1;  // truncate
      return raw;
    }
    case xtuml::DataType::kReal:
      return std::bit_cast<std::uint64_t>(runtime::as_real(v));
    case xtuml::DataType::kInstRef:
      return handle_to_bits(runtime::as_handle(v));
    default:
      throw std::runtime_error("unencodable field type");
  }
}

runtime::Value bits_to_value(const FieldLayout& f, std::uint64_t bits) {
  switch (f.type) {
    case xtuml::DataType::kBool:
      return bits != 0;
    case xtuml::DataType::kInt: {
      // Sign-extend from the field width.
      if (f.width_bits < 64 && (bits & (1ULL << (f.width_bits - 1)))) {
        bits |= ~((1ULL << f.width_bits) - 1);
      }
      return static_cast<std::int64_t>(bits);
    }
    case xtuml::DataType::kReal:
      return std::bit_cast<double>(bits);
    case xtuml::DataType::kInstRef:
      return handle_from_bits(bits);
    default:
      throw std::runtime_error("undecodable field type");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_payload(
    const MessageLayout& layout, const runtime::InstanceHandle& target,
    const std::vector<runtime::Value>& args) {
  if (args.size() + 1 != layout.fields.size()) {
    throw std::runtime_error("encode_payload: arg count mismatch for " +
                             layout.name);
  }
  BitWriter w(layout.payload_bits);
  w.put(layout.fields[0].offset_bits, layout.fields[0].width_bits,
        handle_to_bits(target));
  for (std::size_t i = 1; i < layout.fields.size(); ++i) {
    const FieldLayout& f = layout.fields[i];
    w.put(f.offset_bits, f.width_bits, value_to_bits(f, args[i - 1]));
  }
  return w.take();
}

DecodedPayload decode_payload(const MessageLayout& layout,
                              const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != static_cast<std::size_t>(layout.payload_bytes())) {
    throw std::runtime_error("decode_payload: size mismatch for " +
                             layout.name);
  }
  BitReader r(bytes);
  DecodedPayload out;
  out.target = handle_from_bits(
      r.get(layout.fields[0].offset_bits, layout.fields[0].width_bits));
  for (std::size_t i = 1; i < layout.fields.size(); ++i) {
    const FieldLayout& f = layout.fields[i];
    out.args.push_back(bits_to_value(f, r.get(f.offset_bits, f.width_bits)));
  }
  return out;
}

}  // namespace xtsoc::mapping
