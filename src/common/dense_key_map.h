// Flat map over a fixed, dense key space [0, key_space).
//
// One uint32 slot per key indexes into a dense value pool; erased pool
// entries go on a free list and are reused by later inserts. Lookups are an
// array read, and for_each walks the keys in ascending order without
// building or sorting a key vector, so serializing the map is one pass.
// Built for sparse per-PPN metadata (MRSM's packed-page slot directories):
// the index costs 4 bytes per key, the pool sizeof(T) per live entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace af {

template <typename T>
class DenseKeyMap {
 public:
  explicit DenseKeyMap(std::uint64_t key_space = 0)
      : index_(static_cast<std::size_t>(key_space), kEmpty) {}

  [[nodiscard]] std::uint64_t key_space() const { return index_.size(); }
  [[nodiscard]] std::size_t size() const { return pool_.size() - free_.size(); }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return index_at(key) != kEmpty;
  }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] T* find(std::uint64_t key) {
    const std::uint32_t slot = index_at(key);
    return slot == kEmpty ? nullptr : &pool_[slot];
  }
  [[nodiscard]] const T* find(std::uint64_t key) const {
    const std::uint32_t slot = index_at(key);
    return slot == kEmpty ? nullptr : &pool_[slot];
  }

  /// Stores `value` under an absent `key`; returns false, changing nothing,
  /// if the key is present.
  [[nodiscard]] bool insert(std::uint64_t key, const T& value) {
    if (contains(key)) return false;
    std::uint32_t slot;
    if (free_.empty()) {
      AF_CHECK(pool_.size() < kEmpty);
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(value);
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = value;
    }
    index_[static_cast<std::size_t>(key)] = slot;
    return true;
  }

  /// Stores `value` under `key`, replacing any present value.
  void assign(std::uint64_t key, const T& value) {
    if (T* present = find(key)) {
      *present = value;
    } else {
      (void)insert(key, value);
    }
  }

  /// Removes `key`; returns false if it was absent.
  [[nodiscard]] bool erase(std::uint64_t key) {
    const std::uint32_t slot = index_at(key);
    if (slot == kEmpty) return false;
    index_[static_cast<std::size_t>(key)] = kEmpty;
    free_.push_back(slot);
    return true;
  }

  /// Calls fn(key, value) for every entry, in ascending key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t key = 0; key < index_.size(); ++key) {
      const std::uint32_t slot = index_[key];
      if (slot != kEmpty) fn(std::uint64_t{key}, pool_[slot]);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::uint32_t index_at(std::uint64_t key) const {
    AF_CHECK_MSG(key < index_.size(), "key outside the dense key space");
    return index_[static_cast<std::size_t>(key)];
  }

  std::vector<std::uint32_t> index_;  // key -> pool slot, kEmpty when absent
  std::vector<T> pool_;
  std::vector<std::uint32_t> free_;   // pool slots of erased entries
};

}  // namespace af
