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
#include <vector>

namespace xtsoc::snap {

/// Any malformed-snapshot condition: truncation, bad magic, version or
/// digest mismatch, section over/under-run, CRC failure.
class SnapError : public std::runtime_error {
public:
  explicit SnapError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void bytes(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
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
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> patch_;
};

class Reader {
public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  bool boolean() { return u8() != 0; }

  /// Read an element count, refusing one whose elements (each at least
  /// `min_bytes` >= 1 long) could not fit in the unread bytes. Loaders
  /// size their containers from this, so a hostile count fails here
  /// instead of in a multi-terabyte allocation.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) {
      throw SnapError("snapshot count " + std::to_string(n) + " at offset " +
                      std::to_string(pos_ - 8) + " exceeds the " +
                      std::to_string(remaining()) + " bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// Open the next section and return its tag.
  std::uint32_t begin_section() {
    const std::uint32_t tag = u32();
    const std::uint64_t len = u64();
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
  void need(std::uint64_t n) const {
    if (n > n_ - pos_) {
      throw SnapError("truncated snapshot: need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) +
                      ", have " + std::to_string(n_ - pos_));
    }
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;
};

}  // namespace xtsoc::snap
