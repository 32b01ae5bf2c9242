// FixedRing: a FIFO of at most `capacity` elements in one flat buffer. The
// fabric's queues have hard bounds — an input FIFO holds at most
// fifo_depth flits (credits), a link at most link_latency — so they never
// grow, allocate or free while the network runs.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace xtsoc::noc {

template <class T>
class FixedRing {
public:
  explicit FixedRing(std::size_t capacity = 0) : slots_(capacity) {}

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// The `i`-th element from the front (FIFO order).
  const T& at(std::size_t i) const { return slots_[wrap(head_ + i)]; }

  /// Append `v`; the caller checked !full().
  void push(T v) {
    slots_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }
  void pop() {
    head_ = wrap(head_ + 1);
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

private:
  std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace xtsoc::noc
