#include "xtsoc/runtime/value.hpp"

#include <sstream>
#include <stdexcept>

#include "xtsoc/snap/io.hpp"

namespace xtsoc::runtime {

std::string InstanceHandle::to_string() const {
  if (is_null()) return "<null>";
  std::ostringstream os;
  os << "<inst c" << cls.value() << ":" << index << "g" << generation << ">";
  return os.str();
}

Value default_value(xtuml::DataType type) {
  using xtuml::DataType;
  switch (type) {
    case DataType::kBool:
      return false;
    case DataType::kInt:
      return std::int64_t{0};
    case DataType::kReal:
      return 0.0;
    case DataType::kString:
      return std::string{};
    case DataType::kInstRef:
      return InstanceHandle::null();
    case DataType::kVoid:
      return std::monostate{};
  }
  return std::monostate{};
}

Value from_scalar(const xtuml::ScalarValue& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v);
    case 1:
      return std::get<std::int64_t>(v);
    case 2:
      return std::get<double>(v);
    default:
      return std::get<std::string>(v);
  }
}

std::string to_string(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "<void>"; }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      std::ostringstream os;
      os << d;
      return os.str();
    }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const InstanceHandle& h) const {
      return h.to_string();
    }
    std::string operator()(const InstanceSet& set) const {
      std::ostringstream os;
      os << "{";
      for (std::size_t i = 0; i < set.size(); ++i) {
        if (i > 0) os << ", ";
        os << set[i].to_string();
      }
      os << "}";
      return os.str();
    }
  };
  return std::visit(Visitor{}, v);
}

bool as_bool(const Value& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b;
  throw std::runtime_error("value is not a bool: " + to_string(v));
}

std::int64_t as_int(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw std::runtime_error("value is not an int: " + to_string(v));
}

double as_real(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  throw std::runtime_error("value is not numeric: " + to_string(v));
}

const InstanceHandle& as_handle(const Value& v) {
  if (const auto* h = std::get_if<InstanceHandle>(&v)) return *h;
  throw std::runtime_error("value is not an instance: " + to_string(v));
}

const InstanceSet& as_set(const Value& v) {
  if (const auto* s = std::get_if<InstanceSet>(&v)) return *s;
  throw std::runtime_error("value is not an instance set: " + to_string(v));
}

bool value_equals(const Value& a, const Value& b) {
  // int/int compares exactly as int64, any other numeric pair as real,
  // everything else structurally.
  const auto* ai = std::get_if<std::int64_t>(&a);
  const auto* bi = std::get_if<std::int64_t>(&b);
  if (ai != nullptr && bi != nullptr) return *ai == *bi;
  const bool a_num = std::holds_alternative<std::int64_t>(a) ||
                     std::holds_alternative<double>(a);
  const bool b_num = std::holds_alternative<std::int64_t>(b) ||
                     std::holds_alternative<double>(b);
  if (a_num && b_num) return as_real(a) == as_real(b);
  return a == b;
}

const char* type_name(const Value& v) {
  switch (v.index()) {
    case 0: return "void";
    case 1: return "bool";
    case 2: return "int";
    case 3: return "real";
    case 4: return "string";
    case 5: return "inst_ref";
    default: return "instance set";
  }
}

bool fit_to_type(xtuml::DataType type, Value& v) {
  using xtuml::DataType;
  switch (type) {
    case DataType::kBool:
      return std::holds_alternative<bool>(v);
    case DataType::kInt:
      return std::holds_alternative<std::int64_t>(v);
    case DataType::kReal:
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        v = static_cast<double>(*i);
      }
      return std::holds_alternative<double>(v);
    case DataType::kString:
      return std::holds_alternative<std::string>(v);
    case DataType::kInstRef:
      return std::holds_alternative<InstanceHandle>(v);
    case DataType::kVoid:
      return false;
  }
  return false;
}

template <class Io, class H>
void handle_layout(Io& io, H& h) {
  io.u32(h.cls);
  io.u32(h.index);
  io.u32(h.generation);
}

template void handle_layout(snap::Writer&, const InstanceHandle&);
template void handle_layout(snap::Reader&, InstanceHandle&);

namespace {

/// Make `v` hold the default of alternative `tag`.
template <std::size_t... I>
void emplace_alternative(Value& v, std::size_t tag,
                         std::index_sequence<I...>) {
  ((tag == I ? (void)v.emplace<I>() : (void)0), ...);
}

}  // namespace

template <class Io, class V>
void value_layout(Io& io, V& v) {
  auto tag = static_cast<std::uint8_t>(v.index());
  io.u8(tag);
  if constexpr (Io::kLoading) {
    constexpr std::size_t kAlternatives = std::variant_size_v<Value>;
    if (tag >= kAlternatives) {
      throw snap::SnapError("unknown Value variant tag in snapshot");
    }
    emplace_alternative(v, tag, std::make_index_sequence<kAlternatives>{});
  }
  std::visit(
      [&](auto& x) {
        using T = std::remove_cvref_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) {
          io.boolean(x);
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          io.i64(x);
        } else if constexpr (std::is_same_v<T, double>) {
          io.f64(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
          io.str(x);
        } else if constexpr (std::is_same_v<T, InstanceHandle>) {
          handle_layout(io, x);
        } else if constexpr (std::is_same_v<T, InstanceSet>) {
          io.seq(x, 12, [&](auto& h) { handle_layout(io, h); });
        }
      },
      v);
}

template void value_layout(snap::Writer&, const Value&);
template void value_layout(snap::Reader&, Value&);

}  // namespace xtsoc::runtime
