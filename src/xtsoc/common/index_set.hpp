// IndexSet: a set of small non-negative indices (tiles, channels), visited
// in ascending order. The serial spine keeps one per kind of activity —
// routers holding flits, NICs with flits to inject, channels holding
// frames — so a cycle costs what is active, not what exists, while the
// visiting order stays the index order every byte-identity contract
// relies on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xtsoc {

class IndexSet {
public:
  /// Hold indices [0, n); the set starts empty.
  void resize(std::size_t n) { words_.assign((n + 63) / 64, 0); }

  void insert(std::size_t i) { words_[i / 64] |= bit(i); }
  void erase(std::size_t i) { words_[i / 64] &= ~bit(i); }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  bool empty() const {
    return std::all_of(words_.begin(), words_.end(),
                       [](std::uint64_t w) { return w == 0; });
  }

  /// Call `f(i)` for each member, ascending; `f` may erase `i`.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace xtsoc
