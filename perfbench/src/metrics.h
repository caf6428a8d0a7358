// Measurement helpers of the benchmark program: exact order statistics over
// per-request samples, the metric registry behind the one-line JSON result,
// and the determinism fingerprint of a run's simulated numbers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One exact order statistic: the sample at nearest rank ceil(q * n), with
/// q = num / den given as a fraction so the rank is integer-exact.
struct OrderStat {
  std::uint64_t value = 0;
  std::uint64_t rank = 0;     // 1-based rank of `value` in the sorted sample
  std::uint64_t samples = 0;  // sample count n
  std::uint64_t beyond = 0;   // samples ranked after it: n - rank
};

/// Nearest-rank quantile num/den (0 < num <= den) of an ascending sample.
/// An empty sample yields an all-zero result.
[[nodiscard]] OrderStat order_stat(const std::vector<std::uint64_t>& sorted,
                                   std::uint64_t num, std::uint64_t den);

/// Summary of one latency sample: exact min, p50, p999 and max.
struct Distribution {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  OrderStat p50;
  OrderStat p999;

  /// The reporting invariant: min <= p50 <= p999 <= max and at least ten
  /// samples beyond p999, so the percentile is supported by the sample.
  [[nodiscard]] bool valid() const;
};

/// Sorts `samples` in place and summarizes them.
[[nodiscard]] Distribution distribution(std::vector<std::uint64_t>& samples);

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> xs);

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: 1..16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Ordered name -> (value, unit) registry; one emitter for every metric the
/// benchmark prints, in the human-readable block and in the JSON result line.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };

  /// Adds or overwrites a metric. Aborts on an invalid name or unit, or a
  /// non-finite value (JSON has no NaN), so a bad metric fails loudly.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Entry* find(std::string_view name) const;

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Entry> entries_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const Metrics& metrics);

/// FNV-1a 64 over the exact bits of every value fed to it; two runs with
/// equal fingerprints produced bit-identical simulated numbers.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::vector<std::uint64_t>& vs);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace perfbench
