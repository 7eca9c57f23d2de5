#ifndef DPCOPULA_OBS_METRICS_H_
#define DPCOPULA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/log.h"

namespace dpcopula::obs {

/// Naming convention (see DESIGN.md § Observability): `module.metric`, all
/// lower-case snake_case, e.g. "sampler.rows_emitted",
/// "kendall.pairs_computed", "parallel.pool_tasks". Counters count events or
/// items, gauges hold last-written values, histograms hold latencies in
/// seconds.
///
/// All three metric kinds are safe to update concurrently from ParallelFor
/// workers: every mutable word is a std::atomic, and counters additionally
/// shard across cache-line-padded slots indexed by a dense per-thread id so
/// concurrent Add()s from different workers do not even contend. Reads
/// (Value()/Snapshot()) are racy-but-consistent aggregations — exact once
/// the workers have joined, which is the only time reports read them.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::int64_t delta) {
#if DPCOPULA_OBS_ENABLED
    if (!MetricsEnabled()) return;
    slots_[internal::ThreadIndex() & (kSlots - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  void Increment() { Add(1); }

  std::int64_t Value() const {
    std::int64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr int kSlots = 16;  // Power of two for the mask above.
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  Slot slots_[kSlots];
};

/// Last-writer-wins scalar (e.g. "kendall.subsample_rows"). Writes from
/// concurrent workers are atomic; which one survives is unspecified, which
/// is fine for the "most recent observation" semantics of a gauge.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
#if DPCOPULA_OBS_ENABLED
    if (!MetricsEnabled()) return;
    v_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed (HDR-style) latency histogram in seconds. Observations are
/// stored as integer nanoseconds in buckets that subdivide every power of
/// two into kSubBucketCount linear sub-buckets, so every bucket's bounds
/// are exact integers and the bucket width is at most 1/kSubBucketCount of
/// its lower bound. That makes quantile extraction (p50/p90/p99/p99.9)
/// exact to a guaranteed relative error of 1/kSubBucketCount (~3.1%):
/// Quantile() returns the inclusive upper bound of the bucket holding the
/// ranked observation, which can never undershoot the true quantile and
/// overshoots it by at most that bound. Values below kSubBucketCount ns
/// are stored exactly. The tracked range is 0ns .. 2^42ns (~73 minutes);
/// anything beyond lands in the final overflow bucket, whose quantiles
/// report the tracked maximum instead of a bound.
///
/// Observe() is a bit-scan plus four relaxed atomic updates — no locks, no
/// allocation — and is safe to call concurrently from ParallelFor workers.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;  // 32
  // Exponents 0..41 → shift 0..36; index = shift * 32 + sub (sub < 64).
  static constexpr int kBuckets = 38 * kSubBucketCount;  // 1216

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double seconds);
  /// Observe() of a duration already in integer nanoseconds (negative
  /// durations record as 0).
  void ObserveNanos(std::int64_t nanos);

  std::int64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Total observed time in seconds.
  double Sum() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  /// Largest observation seen, in seconds (0 when empty).
  double Max() const {
    return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  std::vector<std::int64_t> BucketCounts() const;

  /// The q-quantile (q in [0, 1]) in seconds: the inclusive upper bound of
  /// the bucket holding the observation of rank ceil(q * count). Returns 0
  /// on an empty histogram and the tracked maximum for ranks that fall in
  /// the overflow bucket. Racy-but-consistent under concurrent Observe()
  /// (operates on one bucket snapshot), exact once writers have joined.
  double Quantile(double q) const;

  /// One consistent pass over a single bucket snapshot: count, sum, max,
  /// and the four standard percentiles the run report publishes.
  struct Summary {
    std::int64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  Summary GetSummary() const;

  /// Bucket index an observation of `nanos` lands in.
  static int BucketIndex(std::int64_t nanos);
  /// Inclusive upper bound of bucket `i` in integer nanoseconds.
  static std::int64_t BucketUpperBoundNanos(int i);
  /// Inclusive upper bound of bucket `i` in seconds; +inf for the last.
  static double BucketUpperBound(int i);

  void Reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_nanos_{0};
  std::atomic<std::int64_t> max_nanos_{0};
};

/// Process-wide registry. Metrics are created on first lookup and live for
/// the process lifetime (stable pointers — call sites cache them in
/// function-local statics). Lookup takes a mutex; updates through the
/// returned pointers are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  enum class MetricType { kCounter, kGauge, kHistogram };
  struct MetricSnapshot {
    std::string name;
    MetricType type;
    std::int64_t counter_value = 0;
    double gauge_value = 0.0;
    std::int64_t histogram_count = 0;
    double histogram_sum_seconds = 0.0;
    double histogram_max_seconds = 0.0;
    double histogram_p50 = 0.0;
    double histogram_p90 = 0.0;
    double histogram_p99 = 0.0;
    double histogram_p999 = 0.0;
    std::vector<std::int64_t> histogram_buckets;
  };

  /// All registered metrics, sorted by (type, name). Includes metrics whose
  /// value is still zero.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every metric (registrations survive). For tests and the
  /// per-run reports of the CLI tools.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_METRICS_H_
