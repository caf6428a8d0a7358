#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

OrderStat order_stat(const std::vector<std::uint64_t>& sorted,
                     std::uint64_t num, std::uint64_t den) {
  OrderStat s;
  s.samples = sorted.size();
  if (sorted.empty() || den == 0 || num == 0 || num > den) return s;
  // ceil(num * n / den) in integers; n stays far below 2^64 / den.
  s.rank = (num * s.samples + den - 1) / den;
  s.rank = std::clamp<std::uint64_t>(s.rank, 1, s.samples);
  s.value = sorted[s.rank - 1];
  s.beyond = s.samples - s.rank;
  return s;
}

bool Distribution::valid() const {
  return p50.samples > 0 && min <= p50.value && p50.value <= p999.value &&
         p999.value <= max && p999.beyond >= 10;
}

Distribution distribution(std::vector<std::uint64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  Distribution d;
  if (samples.empty()) return d;
  d.min = samples.front();
  d.max = samples.back();
  d.p50 = order_stat(samples, 1, 2);
  d.p999 = order_stat(samples, 999, 1000);
  return d;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!valid_metric_name(name) || !valid_unit(unit) || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: invalid metric %s = %g %s\n",
                 name.c_str(), value, unit.c_str());
    std::abort();
  }
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Metrics::Entry* Metrics::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // Names and units are restricted to characters that need no escaping.
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json() + "}";
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Fingerprint::add(const std::vector<std::uint64_t>& vs) {
  add(static_cast<std::uint64_t>(vs.size()));
  for (std::uint64_t v : vs) add(v);
}

}  // namespace perfbench
