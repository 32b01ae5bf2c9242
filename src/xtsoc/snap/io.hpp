// xtsoc::snap — byte-level checkpoint I/O.
//
// Writer/Reader are the primitive layer of the checkpoint subsystem: a
// little-endian, bounds-checked byte stream with nestable length-prefixed
// sections. They are deliberately header-only so that every library in the
// dependency chain (hwsim, runtime, cosim, noc, fault, obs, bridge) can
// implement its own save_state/load_state against them without linking the
// snap library — snap (snapshot orchestration and warm campaigns)
// sits ABOVE those libraries and stitches their sections together
// (snapshot.hpp).
//
// The two classes share one field vocabulary, so each checkpointed
// structure states its byte layout exactly once, in a layout template
// `template <class Io, class Self> void layout(Io& io, Self& self)` that
// save_state instantiates with (Writer, const T) and load_state with
// (Reader, T). Every call names a field by reference: Writer encodes it,
// Reader assigns it.
//
//   u8/u32/u64/i64(field)  a scalar at that width; int, enum and id fields
//                          convert at the call
//   f64, boolean           a double; a bool as one byte
//   str, blob              a length-prefixed string / byte vector
//   seq(c, min, elem)      a u64 count, then elem(e) for each element
//   map(m, min, entry)     a u64 count, then entry(key, value) per entry
//   count(n, min)          a bare u64 count for containers seq cannot
//                          fill: Writer writes n, Reader returns its count
//   expect(v, message)     a shape guard: Writer writes v, Reader throws
//                          SnapError(message) unless it reads back v
//   state(part)            part.save_state(w) / part.load_state(r)
//
// `min` is the shortest encoding of one element: Reader refuses a count
// whose elements could not fit in the bytes left. It is
// spelled out at each call, never derived from a default element, whose
// encoding may be longer than the shortest legal one. Checks and derived
// state that only a load needs sit in the layout under
// `if constexpr (Io::kLoading)`; with a const Self the writer cannot
// change the structure it saves.
//
// Every read is bounds-checked and every section close is length-checked;
// a truncated or over-long snapshot surfaces as SnapError, never as a
// silent misparse. Encoding is explicit little-endian, so snapshots are
// portable across hosts of the same format version.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace xtsoc::snap {

/// Any malformed-snapshot condition: truncation, bad magic, version or
/// digest mismatch, section over/under-run, CRC failure.
class SnapError : public std::runtime_error {
public:
  explicit SnapError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// A field as its encoded integer: ids by value(), the rest by cast.
template <class W, class T>
W to_wire(const T& v) {
  if constexpr (requires { v.value(); }) {
    return static_cast<W>(v.value());
  } else {
    return static_cast<W>(v);
  }
}

template <class T, class W>
T from_wire(W w) {
  if constexpr (requires(T t) { t.value(); }) {
    return T(static_cast<decltype(std::declval<T>().value())>(w));
  } else {
    return static_cast<T>(w);
  }
}

/// The message of a failed expect: a string, or a callable given the value
/// read.
template <class Msg, class T>
std::string message(Msg&& what, const T& found) {
  if constexpr (std::is_invocable_v<Msg, T>) {
    return what(found);
  } else {
    return std::string(what);
  }
}

}  // namespace detail

class Writer {
public:
  static constexpr bool kLoading = false;

  template <class T>
  void u8(const T& v) {
    put(detail::to_wire<std::uint8_t>(v), 1);
  }
  template <class T>
  void u32(const T& v) {
    put(detail::to_wire<std::uint32_t>(v), 4);
  }
  template <class T>
  void u64(const T& v) {
    put(detail::to_wire<std::uint64_t>(v), 8);
  }
  template <class T>
  void i64(const T& v) {
    put(static_cast<std::uint64_t>(detail::to_wire<std::int64_t>(v)), 8);
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put(bits, 8);
  }

  void boolean(bool v) { put(v ? 1 : 0, 1); }

  void str(std::string_view s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void blob(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }

  /// Raw bytes, no length prefix.
  void bytes(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  template <class T, class Msg>
  void expect(const T& v, Msg&&) {
    static_assert(std::is_unsigned_v<T>, "expect takes an unsigned width");
    put(v, sizeof(T));
  }

  std::size_t count(std::size_t n, std::size_t /*min_bytes*/) {
    u64(n);
    return n;
  }

  template <class C, class F>
  void seq(const C& c, std::size_t /*min_bytes*/, F&& elem) {
    u64(c.size());
    for (const auto& e : c) elem(e);
  }

  template <class M, class F>
  void map(const M& m, std::size_t /*min_bytes*/, F&& entry) {
    u64(m.size());
    for (const auto& [k, v] : m) entry(k, v);
  }

  template <class T>
  void state(const T& part) {
    part.save_state(*this);
  }

  /// Open a tagged, length-prefixed section. Sections nest; the length is
  /// back-patched by end_section(), so writers never precompute sizes.
  void begin_section(std::uint32_t tag) {
    u32(tag);
    patch_.push_back(buf_.size());
    u64(0);  // placeholder, patched by end_section
  }

  void end_section() {
    if (patch_.empty()) throw SnapError("end_section without begin_section");
    const std::size_t at = patch_.back();
    patch_.pop_back();
    const std::uint64_t len = buf_.size() - (at + 8);
    for (int i = 0; i < 8; ++i) {
      buf_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> patch_;
};

class Reader {
public:
  static constexpr bool kLoading = true;

  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  template <class T>
  void u8(T& v) {
    v = detail::from_wire<T>(static_cast<std::uint8_t>(get(1)));
  }
  template <class T>
  void u32(T& v) {
    v = detail::from_wire<T>(static_cast<std::uint32_t>(get(4)));
  }
  template <class T>
  void u64(T& v) {
    v = detail::from_wire<T>(get(8));
  }
  template <class T>
  void i64(T& v) {
    v = detail::from_wire<T>(static_cast<std::int64_t>(get(8)));
  }

  void f64(double& v) {
    const std::uint64_t bits = get(8);
    std::memcpy(&v, &bits, sizeof v);
  }

  void boolean(bool& v) { v = get(1) != 0; }

  void str(std::string& s) {
    const std::uint64_t len = get(8);
    need(len);
    s.assign(reinterpret_cast<const char*>(p_ + pos_),
             static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
  }

  void blob(std::vector<std::uint8_t>& v) {
    const std::size_t len = count(1);
    v.assign(p_ + pos_, p_ + pos_ + len);
    pos_ += len;
  }

  template <class T, class Msg>
  void expect(const T& v, Msg&& what) {
    static_assert(std::is_unsigned_v<T>, "expect takes an unsigned width");
    const T found = static_cast<T>(get(sizeof(T)));
    if (found != v) throw SnapError(detail::message(what, found));
  }

  std::size_t count(std::size_t /*n*/, std::size_t min_bytes) {
    return count(min_bytes);
  }

  template <class C, class F>
  void seq(C& c, std::size_t min_bytes, F&& elem) {
    const std::size_t n = count(min_bytes);
    c.clear();
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      typename C::value_type e{};
      elem(e);
      c.insert(c.end(), std::move(e));
    }
  }

  /// Entries are emplaced, so a repeated key keeps its first value.
  template <class M, class F>
  void map(M& m, std::size_t min_bytes, F&& entry) {
    const std::size_t n = count(min_bytes);
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename M::key_type k{};
      typename M::mapped_type v{};
      entry(k, v);
      m.emplace(std::move(k), std::move(v));
    }
  }

  template <class T>
  void state(T& part) {
    part.load_state(*this);
  }

  /// Open the next section and return its tag.
  std::uint32_t begin_section() {
    const auto tag = static_cast<std::uint32_t>(get(4));
    const std::uint64_t len = get(8);
    need(len);
    ends_.push_back(pos_ + static_cast<std::size_t>(len));
    return tag;
  }

  /// Open the next section, requiring tag `expect`.
  void begin_section(std::uint32_t expect) {
    const std::uint32_t tag = begin_section();
    if (tag != expect) {
      throw SnapError("snapshot section mismatch: expected tag " +
                      std::to_string(expect) + ", found " +
                      std::to_string(tag));
    }
  }

  /// Close the innermost section; the cursor must sit exactly at its end.
  void end_section() {
    if (ends_.empty()) throw SnapError("end_section without begin_section");
    const std::size_t end = ends_.back();
    ends_.pop_back();
    if (pos_ != end) {
      throw SnapError("snapshot section length mismatch: read " +
                      std::to_string(pos_) + ", section ends at " +
                      std::to_string(end));
    }
  }

  /// Close the innermost section by jumping to its end, discarding any
  /// unread payload (for sections the reader chooses not to consume).
  void skip_section() {
    if (ends_.empty()) throw SnapError("skip_section without begin_section");
    pos_ = ends_.back();
    ends_.pop_back();
  }

  std::size_t remaining() const { return n_ - pos_; }
  bool at_end() const { return pos_ == n_; }
  std::size_t position() const { return pos_; }

private:
  /// Read an element count, refusing one whose elements (each at least
  /// `min_bytes` >= 1 long) could not fit in the unread bytes. Loaders
  /// size their containers from this, so a hostile count fails here
  /// instead of in a multi-terabyte allocation.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = get(8);
    if (n > remaining() / min_bytes) {
      throw SnapError("snapshot count " + std::to_string(n) + " at offset " +
                      std::to_string(pos_ - 8) + " exceeds the " +
                      std::to_string(remaining()) + " bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  void need(std::uint64_t n) const {
    if (n > n_ - pos_) {
      throw SnapError("truncated snapshot: need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) +
                      ", have " + std::to_string(n_ - pos_));
    }
  }

  /// The next `width` bytes as a little-endian integer.
  std::uint64_t get(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;
};

}  // namespace xtsoc::snap
