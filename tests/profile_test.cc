// The one timing scope and the process-level samples: obs::Span feeds a
// histogram and the trace from one clock, costs nothing when off, and its
// stage histograms account for the wall clock of a single-threaded run;
// peak-RSS sampling and graceful hardware counter fallback in containers
// that deny perf_event_open.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/mle_estimator.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "data/schema.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "stats/empirical_cdf.h"

// Counts every allocation through the global operator new while armed, for
// the off-path test below. Kept out of line: inlined into a new/delete
// pair, the malloc/free underneath would trip -Wmismatched-new-delete.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dpcopula::obs {
namespace {

Histogram* StageHistogram(const std::string& stage) {
  return MetricsRegistry::Global().GetHistogram("profile." + stage +
                                                "_seconds");
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObsConfig config;
    config.metrics = true;
    SetObsConfig(config);
    MetricsRegistry::Global().ResetAll();
    Tracer::Global().Reset();
  }
  void TearDown() override { SetObsConfig(ObsConfig{}); }
};

TEST_F(ProfileTest, HistogramOnlySpanObservesAndRecordsNoSpan) {
  ObsConfig config;
  config.metrics = true;
  config.trace = true;
  SetObsConfig(config);
  {
    Span scope(StageHistogram("tau_pairs"));
    // Spin a little so the recorded duration is visibly non-zero.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
  EXPECT_EQ(StageHistogram("tau_pairs")->Count(), 1);
  EXPECT_GE(StageHistogram("tau_pairs")->Sum(), 0.0);
  // The per-run reset zeroes the stage histograms; registrations survive.
  MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(StageHistogram("tau_pairs")->Count(), 0);
}

// A span that is off allocates nothing, even with a name long enough to
// defeat the small-string buffer and an index that would render it
// "name[i]".
TEST_F(ProfileTest, OffSpansDoNotAllocate) {
  SetObsConfig(ObsConfig{});
  static constexpr char kName[] = "hybrid.partition_fits";
  static_assert(sizeof(kName) - 1 == 21);
  Histogram* histogram = StageHistogram("mle_partition_fit");
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (std::size_t i = 0; i < 100000; ++i) {
    Span span(kName, i, kNoSpan, histogram);
  }
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocations.load(), 0);
  EXPECT_EQ(histogram->Count(), 0);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

// One pair of clock reads feeds the span record and the histogram, so the
// trace and the per-stage table agree to the nanosecond.
TEST_F(ProfileTest, OneClockFeedsTraceAndHistogram) {
  ObsConfig config;
  config.metrics = true;
  config.trace = true;
  SetObsConfig(config);
  Rng data_rng(3);
  std::vector<data::MarginSpec> specs;
  for (int j = 0; j < 4; ++j) {
    specs.push_back(data::MarginSpec::Gaussian("x" + std::to_string(j), 40));
  }
  const data::Table table = *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(4, 0.3), 20000, &data_rng);
  copula::MleEstimatorOptions options;
  options.num_threads = 4;
  Rng rng(8);
  auto estimate = copula::EstimateMleCorrelation(table, 1.0, &rng, options);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();

  std::int64_t spans = 0;
  std::int64_t span_nanos = 0;
  for (const SpanRecord& record : Tracer::Global().Snapshot()) {
    if (record.name.rfind("mle.partition_fit[", 0) != 0) continue;
    ++spans;
    span_nanos += record.duration_ns;
  }
  const Histogram* histogram = StageHistogram("mle_partition_fit");
  ASSERT_EQ(spans, estimate->num_partitions);
  ASSERT_EQ(histogram->Count(), spans);
  EXPECT_NEAR(histogram->Sum(), 1e-9 * static_cast<double>(span_nanos),
              1e-9 * static_cast<double>(spans));
}

// The accounting guarantee behind the per-stage report tables: stages are
// leaf-level and disjoint, so on one thread their totals cover the wall
// time of the instrumented region, minus only unscoped glue (shard setup,
// table allocation). The glue is not noise: `Table::Zeros` first-touches
// the 12.8 MB output table (about 3,100 page faults) before any stage
// opens, about 15% of a call, and a few milliseconds of preemption or slow
// faults there move one call's coverage from 0.85 to below 0.80. So the
// lower bound holds for the median of kRuns calls; the upper bound is an
// invariant and holds for every call.
TEST_F(ProfileTest, SingleThreadStageSumsTrackWallClock) {
  constexpr std::size_t kRows = 200000;
  constexpr std::size_t kDims = 8;
  constexpr std::size_t kRuns = 5;
  data::Schema schema = [] {
    std::vector<data::Attribute> attrs;
    for (std::size_t j = 0; j < kDims; ++j) {
      attrs.push_back({"x" + std::to_string(j), 64});
    }
    return data::Schema(attrs);
  }();
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < kDims; ++j) {
    std::vector<double> counts(64);
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = static_cast<double>(v + 1);
    }
    cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
  }
  linalg::Matrix corr = *data::Equicorrelation(kDims, 0.4);

  std::vector<double> coverage;
  for (std::size_t run = 0; run < kRuns; ++run) {
    MetricsRegistry::Global().ResetAll();
    Rng rng(1234);
    const auto wall_start = std::chrono::steady_clock::now();
    auto table = copula::SampleSyntheticData(schema, cdfs, corr, kRows, &rng,
                                             /*num_threads=*/1);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    ASSERT_TRUE(table.ok()) << table.status().message();

    double stage_sum = 0.0;
    for (const char* stage :
         {"cholesky", "gaussian_fill", "cholesky_apply", "inverse_cdf"}) {
      stage_sum += StageHistogram(stage)->Sum();
    }
    // Tile-grain stages fire once per tile; the fill and apply tilings
    // match.
    EXPECT_EQ(StageHistogram("gaussian_fill")->Count(),
              StageHistogram("cholesky_apply")->Count());
    EXPECT_EQ(StageHistogram("cholesky")->Count(), 1);
    // Disjoint scopes can never exceed the wall clock that contains them
    // (2% slack for clock-read jitter at tile granularity)...
    EXPECT_LE(stage_sum, wall * 1.02)
        << "stage scopes overlap or leak: sum=" << stage_sum
        << "s wall=" << wall << "s";
    coverage.push_back(stage_sum / wall);
  }
  // ...and the unscoped glue is bounded, so they must also cover most of
  // it. 80% keeps the test robust to allocator hiccups under sanitizers
  // while still catching a dropped stage scope.
  std::sort(coverage.begin(), coverage.end());
  EXPECT_GE(coverage[kRuns / 2], 0.80)
      << "stage coverage too low: median " << coverage[kRuns / 2]
      << " of " << kRuns << " calls";
}

TEST_F(ProfileTest, PeakRssIsPositiveOnLinux) {
  const std::int64_t rss = PeakRssBytes();
#if defined(__linux__)
  EXPECT_GT(rss, 0);
  // A process running this test suite holds at least a megabyte.
  EXPECT_GE(rss, std::int64_t{1} << 20);
#else
  EXPECT_GE(rss, 0);
#endif
}

TEST_F(ProfileTest, HwCountersDegradeGracefully) {
  // Probe is cached and consistent with what a fresh group reports.
  const bool probed = HwCounterGroup::Probe();
  HwCounterGroup group;
  EXPECT_EQ(group.available(), probed);
  group.Start();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1.5;
  const HwCounterSample sample = group.Stop();
  if (group.available()) {
    EXPECT_TRUE(sample.available);
    EXPECT_GT(sample.cycles, 0);
    EXPECT_GT(sample.instructions, 0);
  } else {
    // The container denies perf_event_open: everything must be a harmless
    // zeroed no-op, never an error.
    EXPECT_FALSE(sample.available);
    EXPECT_EQ(sample.cycles, 0);
    EXPECT_EQ(sample.instructions, 0);
    EXPECT_EQ(sample.cache_misses, 0);
  }
  // Stop() twice stays harmless.
  (void)group.Stop();
}

TEST_F(ProfileTest, ProfileSessionPublishesGauges) {
  { ProfileSession session; }
  Gauge* rss = MetricsRegistry::Global().GetGauge("profile.peak_rss_bytes");
  Gauge* hw = MetricsRegistry::Global().GetGauge("profile.hw_available");
#if defined(__linux__)
  EXPECT_GT(rss->Value(), 0.0);
#else
  EXPECT_GE(rss->Value(), 0.0);
#endif
  EXPECT_TRUE(hw->Value() == 0.0 || hw->Value() == 1.0);
  if (hw->Value() == 0.0) {
    EXPECT_EQ(
        MetricsRegistry::Global().GetGauge("profile.hw_cycles")->Value(), 0.0);
  }
}

TEST_F(ProfileTest, ProfileSessionPublishesNothingWithMetricsOff) {
  SetObsConfig(ObsConfig{});
  { ProfileSession session; }
  EXPECT_EQ(MetricsRegistry::Global()
                .GetGauge("profile.peak_rss_bytes")
                ->Value(),
            0.0);
}

}  // namespace
}  // namespace dpcopula::obs
