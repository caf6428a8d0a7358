// Tiny byte-stream helpers for the checkpoint journal. Fixed-width
// little-endian encoding: the blobs live inside one simulated device, so
// there is no cross-machine format concern — only determinism (identical
// state must serialize to identical bytes, which benches compare).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace af::ssd {

class ByteSink {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// Appends raw bytes — already-encoded entries spliced in as one run.
  void append(std::span<const std::uint8_t> raw) {
    bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  }
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  /// Emits a zero u64 to be filled in later with patch_u64 — for counts
  /// that are only known once the entries after them are written.
  [[nodiscard]] std::size_t u64_placeholder() {
    const std::size_t at = bytes_.size();
    u64(0);
    return at;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    AF_CHECK(at + 8 <= bytes_.size());
    store(bytes_.data() + at, v);
  }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  /// One size check per value, not one per byte. (Growing the vector by a
  /// zero-filled slack region instead would make the slack resident.)
  template <typename T>
  void put(T v) {
    std::uint8_t le[sizeof(T)];
    store(le, v);
    bytes_.insert(bytes_.end(), le, le + sizeof(T));
  }
  template <typename T>
  static void store(std::uint8_t* p, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class ByteSource {
 public:
  explicit ByteSource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    AF_CHECK_MSG(pos_ < bytes_.size(), "checkpoint blob underrun");
    return bytes_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
    return v;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace af::ssd
