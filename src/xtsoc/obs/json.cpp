#include "xtsoc/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace xtsoc::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf, end);
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_.push_back('\n');
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back().has_elems) out_.push_back(',');
    stack_.back().has_elems = true;
    newline_indent();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  stack_.push_back({'o'});
  out_.push_back('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  bool had = !stack_.empty() && stack_.back().has_elems;
  stack_.pop_back();
  if (had) newline_indent();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  stack_.push_back({'a'});
  out_.push_back('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  bool had = !stack_.empty() && stack_.back().has_elems;
  stack_.pop_back();
  if (had) newline_indent();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!stack_.empty()) {
    if (stack_.back().has_elems) out_.push_back(',');
    stack_.back().has_elems = true;
    newline_indent();
  }
  out_.push_back('"');
  out_ += json_escape(k);
  out_ += indent_ > 0 ? "\": " : "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_.push_back('"');
  out_ += json_escape(v);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

// --- JsonValue ---------------------------------------------------------------

JsonValue& JsonValue::operator[](std::string_view key) {
  if (is_null()) v_ = Object{};
  Object& o = std::get<Object>(v_);
  for (Member& m : o) {
    if (m.first == key) return m.second;
  }
  o.emplace_back(std::string(key), JsonValue());
  return o.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  for (const Member& m : *o) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JsonValue: no member '" + std::string(key) + "'");
  }
  return *v;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  if (is_null()) v_ = Array{};
  Array& a = std::get<Array>(v_);
  a.push_back(std::move(v));
  return a.back();
}

std::size_t JsonValue::size() const {
  if (const Array* a = std::get_if<Array>(&v_)) return a->size();
  if (const Object* o = std::get_if<Object>(&v_)) return o->size();
  return 0;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  return std::get<Array>(v_).at(i);
}

bool JsonValue::as_bool() const { return std::get<bool>(v_); }

std::int64_t JsonValue::as_int() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) {
    return static_cast<std::int64_t>(*u);
  }
  return std::get<std::int64_t>(v_);
}

std::uint64_t JsonValue::as_uint() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<std::uint64_t>(*i);
  }
  return std::get<std::uint64_t>(v_);
}

double JsonValue::as_double() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) {
    return static_cast<double>(*u);
  }
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  return std::get<std::string>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  return std::get<Object>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  return std::get<Array>(v_);
}

void JsonValue::write(JsonWriter& w) const {
  if (std::holds_alternative<std::nullptr_t>(v_)) {
    w.null();
  } else if (const bool* b = std::get_if<bool>(&v_)) {
    w.value(*b);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    w.value(*i);
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) {
    w.value(*u);
  } else if (const double* d = std::get_if<double>(&v_)) {
    w.value(*d);
  } else if (const std::string* s = std::get_if<std::string>(&v_)) {
    w.value(*s);
  } else if (const Array* a = std::get_if<Array>(&v_)) {
    w.begin_array();
    for (const JsonValue& v : *a) v.write(w);
    w.end_array();
  } else {
    w.begin_object();
    for (const Member& m : std::get<Object>(v_)) {
      w.key(m.first);
      m.second.write(w);
    }
    w.end_object();
  }
}

std::string JsonValue::dump(int indent) const {
  JsonWriter w(indent);
  write(w);
  return w.take();
}

}  // namespace xtsoc::obs
