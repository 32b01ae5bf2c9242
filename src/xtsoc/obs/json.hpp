// obs::json — THE one JSON emission path of the toolchain.
//
// Before the obs subsystem existed, three independent serializers had grown
// side by side (a Chrome trace exporter, bench/bench_json.hpp, and the NoC
// stats printer), each with its own escaping rules and its own idea of key
// order. Everything JSON-shaped now goes through the two types below:
//
//   * JsonWriter — a streaming writer (objects/arrays/values) with escaping
//     handled once and key order fixed by emission order. Optional pretty
//     printing for files meant to be diffed (BENCH_*.json, snapshots).
//   * JsonValue  — an owned JSON tree for code that assembles a document
//     before serializing it (obs::Snapshot, stats adapters). Object keys
//     preserve insertion order, so serialization is stable run to run.
//
// Deliberately small: a writer only, no reader, no SAX, no allocator knobs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace xtsoc::obs {

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes). Handles quotes, backslashes, and all control characters.
std::string json_escape(std::string_view s);

/// Render a double the way every xtsoc JSON document does: shortest
/// round-trip form via std::to_chars ("1", "0.25", "3.3333333333333335"),
/// with non-finite values mapped to null (JSON has no inf/nan).
std::string json_number(double v);

/// Streaming JSON writer. Usage:
///
///   JsonWriter w;
///   w.begin_object().key("name").value("trace").key("n").value(3)
///    .end_object();
///   std::string doc = w.take();
///
/// Commas and (in pretty mode) indentation are managed automatically; keys
/// appear in exactly the order they are written.
class JsonWriter {
public:
  /// `indent` > 0 selects pretty printing with that many spaces per level.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& null();
  /// Splice pre-rendered JSON (e.g. a nested document) as one value.
  JsonWriter& raw(std::string_view json);

  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

private:
  void before_value();
  void newline_indent();

  std::string out_;
  int indent_ = 0;
  /// One frame per open container: 'o'/'a', plus whether it has elements
  /// and (for objects) whether a key was just written.
  struct Frame {
    char kind;
    bool has_elems = false;
  };
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

/// An owned JSON document. Objects keep keys in insertion order.
class JsonValue {
public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(std::int64_t n) : v_(n) {}
  JsonValue(std::uint64_t n) : v_(n) {}
  JsonValue(int n) : v_(static_cast<std::int64_t>(n)) {}
  JsonValue(unsigned n) : v_(static_cast<std::uint64_t>(n)) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(std::string_view s) : v_(std::string(s)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}

  static JsonValue object() { JsonValue v; v.v_ = Object{}; return v; }
  static JsonValue array() { JsonValue v; v.v_ = Array{}; return v; }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_number() const {
    return std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<std::uint64_t>(v_) ||
           std::holds_alternative<double>(v_);
  }

  /// Object access: find-or-insert (mutable) / lookup (const, throws on
  /// missing key). Calling on a null value turns it into an object.
  JsonValue& operator[](std::string_view key);
  const JsonValue& at(std::string_view key) const;
  /// Lookup without throwing; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Array access. Calling push_back on a null value turns it into an array.
  JsonValue& push_back(JsonValue v);
  std::size_t size() const;
  const JsonValue& at(std::size_t i) const;

  // Typed getters (throw std::runtime_error on kind mismatch).
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;
  const Object& as_object() const;
  const Array& as_array() const;

  /// Serialize through JsonWriter (the single emission path).
  void write(JsonWriter& w) const;
  std::string dump(int indent = 0) const;

private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      v_;
};

}  // namespace xtsoc::obs
