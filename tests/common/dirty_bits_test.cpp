#include "common/dirty_bits.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace af {
namespace {

std::vector<std::uint64_t> keys(const DirtyBits& d) {
  std::vector<std::uint64_t> out;
  d.for_each([&out](std::uint64_t key) { out.push_back(key); });
  return out;
}

TEST(DirtyBits, StartsEmpty) {
  const DirtyBits d(100);
  EXPECT_EQ(d.count(), 0u);
  EXPECT_TRUE(keys(d).empty());
}

TEST(DirtyBits, DoubleMarksCountOnce) {
  DirtyBits d(100);
  d.mark(7);
  d.mark(7);
  d.mark(64);
  d.mark(7);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_EQ(keys(d), (std::vector<std::uint64_t>{7, 64}));
}

TEST(DirtyBits, ForEachIsAscendingWhateverTheMarkOrder) {
  DirtyBits d(200);
  for (const std::uint64_t k : {199u, 0u, 128u, 63u, 64u, 127u, 5u}) d.mark(k);
  EXPECT_EQ(keys(d),
            (std::vector<std::uint64_t>{0, 5, 63, 64, 127, 128, 199}));
}

TEST(DirtyBits, ClearEmptiesAndAllowsRemarking) {
  DirtyBits d(70);
  d.mark(3);
  d.mark(69);
  d.clear();
  EXPECT_EQ(d.count(), 0u);
  EXPECT_TRUE(keys(d).empty());
  d.mark(69);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(keys(d), (std::vector<std::uint64_t>{69}));
}

TEST(DirtyBits, MarkAllCoversExactlyTheKeySpace) {
  DirtyBits d(67);  // not a multiple of the word size
  d.mark(5);
  d.mark_all();
  EXPECT_EQ(d.count(), 67u);
  const std::vector<std::uint64_t> all = keys(d);
  ASSERT_EQ(all.size(), 67u);
  for (std::uint64_t k = 0; k < 67; ++k) EXPECT_EQ(all[k], k);
  d.mark(66);  // already marked: no double count
  EXPECT_EQ(d.count(), 67u);
}

TEST(DirtyBits, EmptyKeySpace) {
  DirtyBits d(0);
  d.mark_all();
  d.clear();
  EXPECT_EQ(d.count(), 0u);
  EXPECT_TRUE(keys(d).empty());
}

TEST(DirtyBitsDeathTest, OutOfRangeKeyFails) {
  DirtyBits d(64);
  EXPECT_DEATH(d.mark(64), "outside the dirty set's key space");
  EXPECT_DEATH(d.mark(1000), "outside the dirty set's key space");
}

}  // namespace
}  // namespace af
