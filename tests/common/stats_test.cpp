#include "common/stats.h"

#include <gtest/gtest.h>

namespace af {
namespace {

TEST(StreamingStats, Empty) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStats, Accumulates) {
  StreamingStats s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(StreamingStats, Merge) {
  StreamingStats a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);

  StreamingStats empty;
  a.merge(empty);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 3u);
}

TEST(LogHistogram, MeanExact) {
  LogHistogram h;
  h.add(100);
  h.add(300);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(LogHistogram, PercentileApproximatesBucket) {
  LogHistogram h;
  for (int i = 0; i < 99; ++i) h.add(1000);  // bucket [512,1024)
  h.add(1'000'000);
  // p50 lands in the 1000s bucket; approximation is the bucket midpoint.
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1024.0 * 1.5);
  const double p100 = h.percentile(100);
  EXPECT_GT(p100, 500'000.0);
}

TEST(LogHistogram, ZeroBucket) {
  LogHistogram h;
  h.add(0);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(LatencyRecorder, PerSectorNormalisation) {
  LatencyRecorder r;
  r.record(1000, 4);
  r.record(3000, 4);
  EXPECT_EQ(r.total_sectors(), 8u);
  EXPECT_DOUBLE_EQ(r.latency_per_sector(), 500.0);
  EXPECT_DOUBLE_EQ(r.latency().mean(), 2000.0);
}

TEST(LatencyRecorder, PercentilesStayWithinObservedRange) {
  // 1100 ns lands in the [1024, 2048) bucket, whose midpoint 1536 exceeds
  // the only sample: every percentile must report the sample instead.
  LatencyRecorder high;
  high.record(1100, 1);
  EXPECT_DOUBLE_EQ(high.histogram().percentile(99.9), 1536.0);
  for (const double p : {high.p50_ns(), high.p95_ns(), high.p99_ns(),
                         high.p999_ns()}) {
    EXPECT_DOUBLE_EQ(p, 1100.0);
  }
  EXPECT_LE(high.p999_ns(), high.max_ns());
  // 2000 ns sits above the same midpoint, so the clamp raises it to min.
  LatencyRecorder low;
  low.record(2000, 1);
  EXPECT_DOUBLE_EQ(low.p50_ns(), 2000.0);
  EXPECT_DOUBLE_EQ(LatencyRecorder{}.p99_ns(), 0.0);
}

TEST(LatencyRecorder, Merge) {
  LatencyRecorder a, b;
  a.record(100, 1);
  b.record(300, 3);
  a.merge(b);
  EXPECT_EQ(a.latency().count(), 2u);
  EXPECT_EQ(a.total_sectors(), 4u);
  EXPECT_DOUBLE_EQ(a.latency_per_sector(), 100.0);
}

}  // namespace
}  // namespace af
