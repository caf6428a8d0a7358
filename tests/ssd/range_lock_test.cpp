// Unit tests for the dependency-gate table (DESIGN.md §10): the regions a
// request spans, the read/write gate rules, the max over a multi-region
// span, why a barrier never needs to clear the table, and the stats the
// benchmark reads. The pipeline tests cover the table inside the scheduler.
#include "ssd/range_lock.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/interval.h"

namespace af::ssd {
namespace {

constexpr std::uint64_t kRegion = 16;  // sectors per region, one tiny page
constexpr std::uint64_t kLogical = 64 * kRegion;

SectorRange page(std::uint64_t index, std::uint64_t sectors = kRegion) {
  return SectorRange::of(index * kRegion, sectors);
}

/// One access: its gate, then its completion at `done`.
SimTime access(RangeLockTable& table, SectorRange range, bool write,
               SimTime done) {
  const auto regions = table.span(range);
  const SimTime gate = table.acquire(regions, write);
  table.complete(regions, write, done);
  return gate;
}

TEST(RangeLock, SpanCoversEveryTouchedRegion) {
  const RangeLockTable table(kRegion, kLogical);
  // Across-page shape: starts mid-region 1, ends mid-region 3.
  const auto across = table.span(SectorRange::of(kRegion + 8, 2 * kRegion));
  EXPECT_EQ(across.first, 1u);
  EXPECT_EQ(across.last, 3u);
  const auto one = table.span(SectorRange::of(5 * kRegion + 3, 4));
  EXPECT_EQ(one.first, 5u);
  EXPECT_EQ(one.last, 5u);
  const auto tail = table.span(page(63));
  EXPECT_EQ(tail.first, 63u);
  EXPECT_EQ(tail.last, 63u);
}

TEST(RangeLock, SharedNeverWaitsForShared) {
  RangeLockTable table(kRegion, kLogical);
  EXPECT_EQ(access(table, page(3), /*write=*/false, 100), 0u);
  EXPECT_EQ(access(table, page(3), /*write=*/false, 200), 0u);
  EXPECT_EQ(access(table, page(3), /*write=*/false, 150), 0u);
}

TEST(RangeLock, SharedWaitsForOlderExclusiveOnly) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, page(1), /*write=*/true, 500);
  (void)access(table, page(1), /*write=*/false, 900);  // a read: no gate
  EXPECT_EQ(access(table, page(1), /*write=*/false, 950), 500u);
  (void)access(table, page(1), /*write=*/true, 700);
  EXPECT_EQ(access(table, page(1), /*write=*/false, 1000), 700u);
}

TEST(RangeLock, ExclusiveWaitsForEveryOlderAccess) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, page(1), /*write=*/true, 500);
  (void)access(table, page(1), /*write=*/false, 900);
  // The older read completes last: a write must not overtake it.
  EXPECT_EQ(access(table, page(1), /*write=*/true, 1200), 900u);
  EXPECT_EQ(access(table, page(1), /*write=*/true, 1300), 1200u);
}

TEST(RangeLock, GateIsTheMaxOverTouchedRegions) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, page(1), /*write=*/true, 300);
  (void)access(table, page(2), /*write=*/true, 800);
  (void)access(table, page(3), /*write=*/true, 500);
  EXPECT_EQ(access(table, SectorRange::of(kRegion + 8, 2 * kRegion),
                   /*write=*/false, 1000),
            800u);
  // The span's completion lands on all three regions.
  EXPECT_EQ(access(table, page(1), /*write=*/true, 1100), 1000u);
  EXPECT_EQ(access(table, page(3), /*write=*/true, 1100), 1000u);
}

TEST(RangeLock, DisjointRegionsNeverConflict) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, page(0), /*write=*/true, 400);
  EXPECT_EQ(access(table, page(7), /*write=*/true, 600), 0u);
  EXPECT_EQ(access(table, page(7 + 16), /*write=*/false, 700), 0u);
  EXPECT_EQ(access(table, page(0), /*write=*/false, 800), 400u);
}

TEST(RangeLock, BarrierGateDominatesStaleRegionGates) {
  // The scheduler issues a barrier at or after every completion so far, so
  // its completion bounds every gate the table holds: max() with the
  // barrier gate hides them exactly as clearing the table would.
  RangeLockTable table(kRegion, kLogical);
  SimTime all_done = 0;
  for (std::uint64_t p = 0; p < 8; ++p) {
    const SimTime done = 100 * (p + 1);
    (void)access(table, page(p), /*write=*/p % 2 == 0, done);
    all_done = std::max(all_done, done);
  }
  table.acquire_barrier();
  const SimTime barrier_gate = all_done + 50;  // the barrier's completion
  for (std::uint64_t p = 0; p < 8; ++p) {
    for (const bool write : {false, true}) {
      const SimTime gate = table.acquire(table.span(page(p)), write);
      EXPECT_LE(gate, barrier_gate);
      EXPECT_EQ(std::max(barrier_gate, gate), barrier_gate);
    }
  }
}

TEST(RangeLock, ClearGatesStartsEveryRegionAtZero) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, page(5), /*write=*/true, 900);
  table.clear_gates();
  EXPECT_EQ(access(table, page(5), /*write=*/true, 100), 0u);
  EXPECT_EQ(table.stats().acquisitions, 2u);  // stats survive the clear
}

TEST(RangeLock, StatsCountRegionsAndBarriers) {
  RangeLockTable table(kRegion, kLogical);
  (void)access(table, SectorRange::of(0, 2 * kRegion), /*write=*/true, 10);
  table.acquire_barrier();
  (void)access(table, SectorRange::of(kRegion + 1, 1), /*write=*/false, 20);
  const auto stats = table.stats();
  EXPECT_EQ(stats.acquisitions, 3u);
  EXPECT_EQ(stats.barrier_acquisitions, 1u);
  EXPECT_EQ(stats.region_entries, 3u);  // 2 + 1; barriers add 0
}

TEST(RangeLockDeathTest, RequestBeyondTheTableAborts) {
  const RangeLockTable table(kRegion, kLogical);
  EXPECT_DEATH((void)table.span(SectorRange::of(kLogical - 4, 8)),
               "outside the gate table");
}

}  // namespace
}  // namespace af::ssd
