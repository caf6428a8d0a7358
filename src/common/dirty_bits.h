// Dirty set over a fixed, dense key space [0, key_space): one bit per key.
//
// Marking is idempotent, so a key touched many times between drains is
// listed once, and for_each walks the marked keys in ascending order. The
// journal encoders emit their dirty keys sorted and deduplicated; this
// gives them that order with no sort, no duplicate entries and no growth.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace af {

class DirtyBits {
 public:
  explicit DirtyBits(std::uint64_t key_space = 0)
      : words_(static_cast<std::size_t>((key_space + 63) / 64), 0),
        key_space_(key_space) {}

  /// Distinct keys marked since the last clear.
  [[nodiscard]] std::uint64_t count() const { return count_; }

  void mark(std::uint64_t key) {
    AF_CHECK_MSG(key < key_space_, "key outside the dirty set's key space");
    std::uint64_t& word = words_[static_cast<std::size_t>(key / 64)];
    const std::uint64_t bit = std::uint64_t{1} << (key % 64);
    count_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }

  /// Marks every key of the key space.
  void mark_all() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if (key_space_ % 64 != 0) {
      words_.back() = (std::uint64_t{1} << (key_space_ % 64)) - 1;
    }
    count_ = key_space_;
  }

  /// Calls fn(key) for every marked key, in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t left = count_;
    for (std::size_t i = 0; left != 0; ++i) {
      for (std::uint64_t word = words_[i]; word != 0; word &= word - 1) {
        fn(std::uint64_t{i} * 64 +
           static_cast<std::uint64_t>(std::countr_zero(word)));
        --left;
      }
    }
  }

  void clear() {
    if (count_ == 0) return;
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t key_space_;
  std::uint64_t count_ = 0;
};

}  // namespace af
