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

void save_handle(snap::Writer& w, const InstanceHandle& h) {
  w.u32(h.cls.value());
  w.u32(h.index);
  w.u32(h.generation);
}

InstanceHandle load_handle(snap::Reader& r) {
  InstanceHandle h;
  h.cls = ClassId(r.u32());
  h.index = r.u32();
  h.generation = r.u32();
  return h;
}

void save_value(snap::Writer& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.index()));
  switch (v.index()) {
    case 0:
      break;
    case 1:
      w.boolean(std::get<bool>(v));
      break;
    case 2:
      w.i64(std::get<std::int64_t>(v));
      break;
    case 3:
      w.f64(std::get<double>(v));
      break;
    case 4:
      w.str(std::get<std::string>(v));
      break;
    case 5:
      save_handle(w, std::get<InstanceHandle>(v));
      break;
    case 6: {
      const InstanceSet& set = std::get<InstanceSet>(v);
      w.u64(set.size());
      for (const InstanceHandle& h : set) save_handle(w, h);
      break;
    }
  }
}

Value load_value(snap::Reader& r) {
  switch (r.u8()) {
    case 0:
      return Value{};
    case 1:
      return Value(r.boolean());
    case 2:
      return Value(r.i64());
    case 3:
      return Value(r.f64());
    case 4:
      return Value(r.str());
    case 5:
      return Value(load_handle(r));
    case 6: {
      InstanceSet set(r.count(12));
      for (InstanceHandle& h : set) h = load_handle(r);
      return Value(std::move(set));
    }
    default:
      throw snap::SnapError("unknown Value variant tag in snapshot");
  }
}

}  // namespace xtsoc::runtime
