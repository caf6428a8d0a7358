#include "common/dense_key_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace af {
namespace {

std::vector<std::pair<std::uint64_t, int>> entries(const DenseKeyMap<int>& m) {
  std::vector<std::pair<std::uint64_t, int>> out;
  m.for_each([&out](std::uint64_t key, int v) { out.emplace_back(key, v); });
  return out;
}

TEST(DenseKeyMap, InsertFindAndSize) {
  DenseKeyMap<int> m(16);
  EXPECT_EQ(m.key_space(), 16u);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(3), nullptr);

  EXPECT_TRUE(m.insert(3, 30));
  EXPECT_TRUE(m.insert(15, 150));
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 30);
  EXPECT_TRUE(m.contains(15));
  EXPECT_FALSE(m.contains(0));

  // A second insert under a present key changes nothing.
  EXPECT_FALSE(m.insert(3, 31));
  EXPECT_EQ(*m.find(3), 30);
  EXPECT_EQ(m.size(), 2u);

  *m.find(15) = 151;
  EXPECT_EQ(*m.find(15), 151);
}

TEST(DenseKeyMap, EraseAndReinsertAtTheSameKey) {
  DenseKeyMap<int> m(8);
  ASSERT_TRUE(m.insert(5, 50));
  ASSERT_TRUE(m.insert(2, 20));

  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m.size(), 1u);

  // Reinsertion at the erased key holds the new value only (the freed pool
  // slot is reused, not resurrected).
  EXPECT_TRUE(m.insert(5, 55));
  EXPECT_EQ(*m.find(5), 55);
  EXPECT_EQ(*m.find(2), 20);
  EXPECT_EQ(m.size(), 2u);

  // A freed slot serves a different key too.
  EXPECT_TRUE(m.erase(2));
  EXPECT_TRUE(m.insert(7, 70));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(entries(m),
            (std::vector<std::pair<std::uint64_t, int>>{{5, 55}, {7, 70}}));
}

TEST(DenseKeyMap, AssignInsertsOrOverwrites) {
  DenseKeyMap<int> m(4);
  m.assign(1, 10);
  m.assign(1, 11);
  m.assign(0, 0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(1), 11);
}

TEST(DenseKeyMap, ForEachVisitsKeysInAscendingOrder) {
  DenseKeyMap<int> m(64);
  // Insert out of order and churn the pool, so pool order differs from key
  // order.
  for (const std::uint64_t key : {40u, 3u, 63u, 17u, 0u, 22u}) {
    ASSERT_TRUE(m.insert(key, static_cast<int>(key) * 10));
  }
  ASSERT_TRUE(m.erase(3));
  ASSERT_TRUE(m.erase(40));
  ASSERT_TRUE(m.insert(41, 410));
  ASSERT_TRUE(m.insert(1, 10));

  const auto got = entries(m);
  EXPECT_EQ(got, (std::vector<std::pair<std::uint64_t, int>>{
                     {0, 0}, {1, 10}, {17, 170}, {22, 220}, {41, 410},
                     {63, 630}}));
  EXPECT_EQ(got.size(), m.size());
}

TEST(DenseKeyMapDeathTest, KeyOutsideTheKeySpaceFails) {
  DenseKeyMap<int> m(4);
  EXPECT_DEATH((void)m.find(4), "outside the dense key space");
  EXPECT_DEATH((void)m.insert(99, 1), "outside the dense key space");
}

}  // namespace
}  // namespace af
