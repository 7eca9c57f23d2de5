#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace dpcopula::obs {

int Histogram::BucketIndex(std::int64_t nanos) {
  if (nanos < 0) nanos = 0;
  const auto n = static_cast<std::uint64_t>(nanos);
  if (n < kSubBucketCount) return static_cast<int>(n);
  // n >= 32: divide [2^e, 2^(e+1)) into 32 linear sub-buckets by dropping
  // all but the top kSubBucketBits+1 significant bits.
  const int exponent = std::bit_width(n) - 1;
  const int shift = exponent - kSubBucketBits;
  const int index =
      (shift << kSubBucketBits) + static_cast<int>(n >> shift);
  return index < kBuckets ? index : kBuckets - 1;
}

std::int64_t Histogram::BucketUpperBoundNanos(int i) {
  if (i < kSubBucketCount) return i;  // Exact small values: bucket i == i ns.
  const int shift = (i >> kSubBucketBits) - 1;
  const std::int64_t sub =
      (i & (kSubBucketCount - 1)) | kSubBucketCount;  // In [32, 64).
  return ((sub + 1) << shift) - 1;
}

double Histogram::BucketUpperBound(int i) {
  if (i >= kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(BucketUpperBoundNanos(i)) * 1e-9;
}

void Histogram::Observe(double seconds) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) seconds = 0.0;
  // 2^62 ns headroom before the double->int64 cast could overflow; the
  // index computation clamps into the overflow bucket far earlier anyway.
  ObserveNanos(static_cast<std::int64_t>(std::min(seconds * 1e9, 4.6e18)));
}

void Histogram::ObserveNanos(std::int64_t nanos) {
  if (!MetricsEnabled()) return;
  if (nanos < 0) nanos = 0;
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  // Relaxed CAS max: contended only while a new maximum is being set,
  // which is rare after warm-up.
  std::int64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_nanos_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Histogram::BucketCounts() const {
  std::vector<std::int64_t> out(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    out[static_cast<std::size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

/// Quantile over a bucket snapshot: upper bound of the bucket holding the
/// observation of rank ceil(q * total); the overflow bucket reports the
/// tracked maximum (its upper bound is +inf).
double QuantileFromBuckets(const std::vector<std::int64_t>& buckets,
                           std::int64_t total, double max_seconds,
                           double q) {
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::int64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    cum += buckets[static_cast<std::size_t>(i)];
    if (cum >= rank) {
      if (i == Histogram::kBuckets - 1) return max_seconds;
      return Histogram::BucketUpperBound(i);
    }
  }
  return max_seconds;
}

}  // namespace

double Histogram::Quantile(double q) const {
  const std::vector<std::int64_t> buckets = BucketCounts();
  std::int64_t total = 0;
  for (std::int64_t b : buckets) total += b;
  return QuantileFromBuckets(buckets, total, Max(), q);
}

Histogram::Summary Histogram::GetSummary() const {
  const std::vector<std::int64_t> buckets = BucketCounts();
  std::int64_t total = 0;
  for (std::int64_t b : buckets) total += b;
  Summary s;
  s.count = total;
  s.sum_seconds = Sum();
  s.max_seconds = Max();
  s.p50 = QuantileFromBuckets(buckets, total, s.max_seconds, 0.50);
  s.p90 = QuantileFromBuckets(buckets, total, s.max_seconds, 0.90);
  s.p99 = QuantileFromBuckets(buckets, total, s.max_seconds, 0.99);
  s.p999 = QuantileFromBuckets(buckets, total, s.max_seconds, 0.999);
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumentation sites cache metric pointers in
  // function-local statics and may fire during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricsRegistry::MetricSnapshot> MetricsRegistry::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kCounter;
    s.counter_value = counter->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kGauge;
    s.gauge_value = gauge->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kHistogram;
    const Histogram::Summary summary = histogram->GetSummary();
    s.histogram_count = summary.count;
    s.histogram_sum_seconds = summary.sum_seconds;
    s.histogram_max_seconds = summary.max_seconds;
    s.histogram_p50 = summary.p50;
    s.histogram_p90 = summary.p90;
    s.histogram_p99 = summary.p99;
    s.histogram_p999 = summary.p999;
    s.histogram_buckets = histogram->BucketCounts();
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace dpcopula::obs
