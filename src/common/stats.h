// Measurement primitives: counters, streaming summaries, and latency
// histograms. Every number that appears in a paper figure flows through one
// of these.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace af {

/// Streaming min/max/mean/sum over a sequence of samples.
class StreamingStats {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  void merge(const StreamingStats& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.count_) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in ns).
/// Supports approximate percentile queries; exact enough for reporting p50/p99
/// shapes across millions of samples without storing them.
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::uint64_t x) {
    ++buckets_[bucket_of(x)];
    ++count_;
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }

  /// Approximate percentile (0 < p <= 100): midpoint of the bucket holding
  /// the p-th sample. An empty histogram returns 0 — pair the query with
  /// empty() to distinguish "no samples" from "all samples were 0".
  [[nodiscard]] double percentile(double p) const;

  void merge(const LogHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

 private:
  static int bucket_of(std::uint64_t x) {
    return x == 0 ? 0 : 64 - __builtin_clzll(x);
  }
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Latency recorder keyed by request class; accumulates both per-request
/// latency and per-sector-size normalisation (the paper reports "latency per
/// sector-size" in Figure 4).
class LatencyRecorder {
 public:
  void record(SimDuration latency_ns, SectorCount sectors) {
    latency_.add(static_cast<double>(latency_ns));
    hist_.add(latency_ns);
    sectors_ += sectors;
  }

  [[nodiscard]] const StreamingStats& latency() const { return latency_; }
  [[nodiscard]] const LogHistogram& histogram() const { return hist_; }
  [[nodiscard]] std::uint64_t total_sectors() const { return sectors_; }

  /// Mean latency normalised by transferred sectors (ns per sector).
  [[nodiscard]] double latency_per_sector() const {
    return sectors_ ? latency_.sum() / static_cast<double>(sectors_) : 0.0;
  }

  // Tail-latency accessors for the queue-depth sweeps (ns; p* approximate
  // via the log2 histogram, clamped to the exact observed [min, max] so a
  // bucket midpoint never reports a latency no sample had; max exact via the
  // streaming summary). All return 0 on an empty distribution — check
  // empty() first rather than treating that 0 as a measured latency.
  [[nodiscard]] bool empty() const { return hist_.empty(); }
  [[nodiscard]] double p50_ns() const { return percentile(50); }
  [[nodiscard]] double p95_ns() const { return percentile(95); }
  [[nodiscard]] double p99_ns() const { return percentile(99); }
  [[nodiscard]] double p999_ns() const { return percentile(99.9); }
  [[nodiscard]] double max_ns() const { return latency_.max(); }

  void merge(const LatencyRecorder& o) {
    latency_.merge(o.latency_);
    hist_.merge(o.hist_);
    sectors_ += o.sectors_;
  }

 private:
  [[nodiscard]] double percentile(double p) const {
    return std::clamp(hist_.percentile(p), latency_.min(), latency_.max());
  }

  StreamingStats latency_;
  LogHistogram hist_;
  std::uint64_t sectors_ = 0;
};

}  // namespace af
