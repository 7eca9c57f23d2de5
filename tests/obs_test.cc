// Observability layer: metric sharding under the shared pool, span-tree
// nesting, the JSON run report and its reader, and — most importantly — the
// guarantee that turning obs on or off never changes a single released byte.
//
// Every assertion about recorded values is guarded on DPCOPULA_OBS_ENABLED
// so the suite also passes (and still exercises the no-op stubs) when the
// library is built with -DDPCOPULA_OBS=OFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/generator.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace dpcopula {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ObsConfig config;
    config.metrics = true;
    config.trace = true;
    obs::SetObsConfig(config);
    obs::MetricsRegistry::Global().ResetAll();
    obs::Tracer::Global().Reset();
  }
  void TearDown() override { obs::SetObsConfig(obs::ObsConfig{}); }
};

// ---------------------------------------------------------------------------
// Metrics.

TEST_F(ObsTest, CounterShardsAreRaceFreeUnderParallelFor) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("obs_test.sharded");
  constexpr std::size_t kItems = 100000;
  // grain 64 with 8 threads: many concurrent Add() calls from distinct
  // pool workers land in distinct padded slots (TSan verifies the claim).
  ParallelFor(
      0, kItems, /*grain=*/64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) counter->Increment();
      },
      /*num_threads=*/8);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(counter->Value(), static_cast<std::int64_t>(kItems));
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0);
#else
  EXPECT_EQ(counter->Value(), 0);
#endif
}

TEST_F(ObsTest, GaugeHoldsLastWrite) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("obs_test.g");
  gauge->Set(2.5);
  gauge->Set(-7.0);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(gauge->Value(), -7.0);
#else
  EXPECT_EQ(gauge->Value(), 0.0);
#endif
}

TEST_F(ObsTest, HistogramBucketsObservationsBySeconds) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.h");
  // HDR layout: integer-nanosecond bounds, strictly monotone, +inf last.
  for (int i = 1; i < obs::Histogram::kBuckets - 1; ++i) {
    EXPECT_GT(obs::Histogram::BucketUpperBoundNanos(i),
              obs::Histogram::BucketUpperBoundNanos(i - 1));
  }
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kBuckets - 1)));

  h->Observe(3e-9);    // 3 ns: the exact small-value region (bucket == n).
  h->Observe(0.5e-6);  // 500 ns: a log bucket.
  h->Observe(1e9);     // Far past the 2^42ns range: overflow bucket.
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(h->Count(), 3);
  const auto buckets = h->BucketCounts();
  EXPECT_EQ(buckets[3], 1);
  EXPECT_EQ(buckets[static_cast<std::size_t>(
                obs::Histogram::BucketIndex(500))],
            1);
  EXPECT_EQ(buckets.back(), 1);
  std::int64_t total = 0;
  for (std::int64_t b : buckets) total += b;
  EXPECT_EQ(total, 3);
  EXPECT_GT(h->Sum(), 0.0);
  EXPECT_NEAR(h->Max(), 1e9, 1e-9 * 1e9 + 5e9);  // Clamped into range.
#else
  EXPECT_EQ(h->Count(), 0);
#endif
}

TEST_F(ObsTest, HistogramBucketIndexInvariants) {
  using H = obs::Histogram;
  // Small values are stored exactly: bucket n covers exactly {n} for n<32.
  for (std::int64_t n = 0; n < H::kSubBucketCount; ++n) {
    EXPECT_EQ(H::BucketIndex(n), static_cast<int>(n));
    EXPECT_EQ(H::BucketUpperBoundNanos(static_cast<int>(n)), n);
  }
  // Every bucket contains its own upper bound, upper bounds are tight
  // (UB+1 lands in a later bucket), and the relative bucket width is at
  // most 1/kSubBucketCount of the value.
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    // Log-uniform nanos across the whole tracked range.
    const double log_max = 42.0 * 0.6931471805599453;
    const std::int64_t n = static_cast<std::int64_t>(
        std::exp(rng.NextDouble() * log_max));
    const int i = H::BucketIndex(n);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, H::kBuckets);
    const std::int64_t ub = H::BucketUpperBoundNanos(i);
    if (i < H::kBuckets - 1) {
      EXPECT_LE(n, ub) << n;
      EXPECT_GT(H::BucketIndex(ub + 1), i) << n;
      const std::int64_t lb =
          (i == 0) ? 0 : H::BucketUpperBoundNanos(i - 1) + 1;
      EXPECT_GE(n, lb) << n;
      // Relative error of reporting UB for any member of the bucket.
      EXPECT_LE(static_cast<double>(ub - lb),
                static_cast<double>(lb) / H::kSubBucketCount + 1.0)
          << n;
    }
  }
  // Negative and absurd inputs clamp instead of indexing out of range.
  EXPECT_EQ(H::BucketIndex(-5), 0);
  EXPECT_EQ(H::BucketIndex(std::numeric_limits<std::int64_t>::max() / 2),
            H::kBuckets - 1);
}

TEST_F(ObsTest, HistogramQuantilesMatchExactWithinBucketError) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hq");
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixture: microseconds-scale mass plus a sparse millisecond tail, the
    // shape of a real latency histogram.
    double seconds = 1e-6 * std::exp(3.0 * rng.NextDouble());
    if (i % 50 == 0) seconds *= 1000.0;
    values.push_back(seconds);
    h->Observe(seconds);
  }
#if DPCOPULA_OBS_ENABLED
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    const double exact = sorted[static_cast<std::size_t>(rank - 1)];
    const double got = h->Quantile(q);
    // The reported quantile is the inclusive bucket upper bound: never
    // below the true quantile (modulo 1ns double->int truncation), above
    // it by at most the relative bucket width.
    EXPECT_GE(got, exact - 2e-9) << "q=" << q;
    EXPECT_LE(got, exact * (1.0 + 1.0 / obs::Histogram::kSubBucketCount) +
                       2e-9)
        << "q=" << q;
  }
  const obs::Histogram::Summary summary = h->GetSummary();
  EXPECT_EQ(summary.count, static_cast<std::int64_t>(values.size()));
  EXPECT_EQ(summary.p50, h->Quantile(0.5));
  EXPECT_EQ(summary.p999, h->Quantile(0.999));
  EXPECT_LE(summary.p50, summary.p90);
  EXPECT_LE(summary.p90, summary.p99);
  EXPECT_LE(summary.p99, summary.p999);
  EXPECT_LE(summary.p999, summary.max_seconds *
                              (1.0 + 1.0 / obs::Histogram::kSubBucketCount));
#else
  EXPECT_EQ(h->Quantile(0.5), 0.0);
#endif
}

TEST_F(ObsTest, HistogramEmptyAndSingleObservationQuantiles) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hq1");
  EXPECT_EQ(h->Quantile(0.5), 0.0);  // Empty histogram.
  h->Observe(1.5e-3);
#if DPCOPULA_OBS_ENABLED
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h->Quantile(q), 1.5e-3 * (1.0 - 1e-9) - 2e-9);
    EXPECT_LE(h->Quantile(q),
              1.5e-3 * (1.0 + 1.0 / obs::Histogram::kSubBucketCount));
  }
#endif
}

TEST_F(ObsTest, HistogramConcurrentObserveAndQuantile) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hc");
  constexpr std::size_t kItems = 20000;
  // Writers on pool workers race with Quantile/GetSummary readers; TSan
  // verifies the lock-free claim, the exact count verifies no lost update.
  ParallelFor(
      0, kItems, /*grain=*/128,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          h->Observe(1e-6 * static_cast<double>(1 + (i & 1023)));
          if ((i & 511) == 0) {
            const double q = h->Quantile(0.9);
            EXPECT_GE(q, 0.0);  // Racy but always well-formed.
            (void)h->GetSummary();
          }
        }
      },
      /*num_threads=*/8);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(h->Count(), static_cast<std::int64_t>(kItems));
  EXPECT_GT(h->Quantile(0.5), 0.0);
#else
  EXPECT_EQ(h->Count(), 0);
#endif
}

TEST_F(ObsTest, RegistryReturnsStablePointersAndSnapshots) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("obs_test.c1");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("obs_test.c1");
  EXPECT_EQ(a, b);
  a->Add(5);
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const auto it = std::find_if(
      snapshot.begin(), snapshot.end(),
      [](const auto& m) { return m.name == "obs_test.c1"; });
  ASSERT_NE(it, snapshot.end());
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(it->counter_value, 5);
#endif
}

// ---------------------------------------------------------------------------
// Tracing.

TEST_F(ObsTest, SpansNestViaThreadLocalStack) {
  {
    obs::Span outer("outer");
    {
      obs::Span middle("middle");
      obs::Span inner("inner");
      (void)inner;
      (void)middle;
    }
    obs::Span sibling("sibling");
    (void)sibling;
    (void)outer;
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, obs::SpanRecord> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["outer"].parent, obs::kNoSpan);
  EXPECT_EQ(by_name["middle"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["inner"].parent, by_name["middle"].id);
  EXPECT_EQ(by_name["sibling"].parent, by_name["outer"].id);
  for (const auto& s : spans) EXPECT_GE(s.duration_ns, 0);
#else
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
#endif
}

TEST_F(ObsTest, ExplicitParentAttachesPoolWorkerSpans) {
  obs::SpanId parent_id = obs::kNoSpan;
  {
    obs::Span phase("phase");
    parent_id = phase.id();
    // Pool workers have an empty thread-local span stack; the explicit
    // handle is the only way these children can attach to `phase`.
    ParallelFor(
        0, 8, /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            obs::Span child("worker_child", parent_id);
            (void)child;
          }
        },
        /*num_threads=*/4);
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 9u);
  int children = 0;
  for (const auto& s : spans) {
    if (s.name == "worker_child") {
      EXPECT_EQ(s.parent, parent_id);
      ++children;
    }
  }
  EXPECT_EQ(children, 8);
#endif
}

TEST_F(ObsTest, ResetDropsRecordedSpans) {
  { obs::Span s("to_drop"); }
  obs::Tracer::Global().Reset();
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
}

TEST_F(ObsTest, TracerBufferIsBoundedAndCountsDrops) {
  constexpr std::size_t kExtra = 100;
  for (std::size_t i = 0; i < obs::Tracer::kMaxSpans + kExtra; ++i) {
    obs::Span s("flood");
  }
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(obs::Tracer::Global().Snapshot().size(), obs::Tracer::kMaxSpans);
  EXPECT_EQ(obs::Tracer::Global().dropped(),
            static_cast<std::int64_t>(kExtra));
  // The overflow also surfaces as a metric so dashboards see it without
  // walking the span buffer.
  obs::Counter* dropped_counter =
      obs::MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  EXPECT_EQ(dropped_counter->Value(), static_cast<std::int64_t>(kExtra));
  // Reset drains the buffer; new spans record again.
  obs::Tracer::Global().Reset();
  { obs::Span s("after_reset"); }
  EXPECT_EQ(obs::Tracer::Global().Snapshot().size(), 1u);
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
#else
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
#endif
}

// ---------------------------------------------------------------------------
// Chrome trace exporter.

obs::SpanRecord MakeSpan(obs::SpanId id, obs::SpanId parent,
                         const std::string& name, std::int64_t start_ns,
                         std::int64_t duration_ns, int thread_index) {
  obs::SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.start_ns = start_ns;
  r.duration_ns = duration_ns;
  r.thread_index = thread_index;
  return r;
}

TEST_F(ObsTest, ChromeTraceRendersWellFormedCompleteEvents) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(MakeSpan(1, obs::kNoSpan, "synthesize", 1000, 900000, 0));
  spans.push_back(MakeSpan(2, 1, "margins", 2500, 10000, 0));
  spans.push_back(MakeSpan(3, 1, "sampling", 20000, 800500, 2));
  const std::string json = obs::RenderChromeTraceJson(spans, 7);
  EXPECT_TRUE(obs::ParseJson(json).ok()) << json.substr(0, 400);

  // One "X" (complete) event per span with microsecond ts/dur at
  // nanosecond precision, pid 1, and the recording thread as tid.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"synthesize\", \"cat\": \"dpcopula\", "
                      "\"ph\": \"X\", \"ts\": 1.000, \"dur\": 900.000, "
                      "\"pid\": 1, \"tid\": 0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\": 2.500, \"dur\": 10.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
  // Parent linkage travels in args for tooling that reconstructs the tree.
  EXPECT_NE(json.find("\"args\": {\"id\": 2, \"parent\": 1}"),
            std::string::npos);
  // Metadata events name the process and each thread track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread-2\""), std::string::npos);
  // The drop count is surfaced in otherData (as a string, per the format).
  EXPECT_NE(json.find("\"dropped_spans\": \"7\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceNestedSpansStayContained) {
  { 
    obs::Span outer("outer");
    obs::Span inner("inner");
    (void)outer;
    (void)inner;
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& inner =
      spans[0].name == "inner" ? spans[0] : spans[1];
  const auto& outer =
      spans[0].name == "outer" ? spans[0] : spans[1];
  // Chrome interprets [ts, ts+dur]; the child interval must sit inside the
  // parent for the render to nest.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
  const std::string json = obs::RenderChromeTraceJson();
  EXPECT_TRUE(obs::ParseJson(json).ok());
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
#endif
}

TEST_F(ObsTest, ChromeTraceEmptyTraceIsValid) {
  const std::string json = obs::RenderChromeTraceJson({}, 0);
  EXPECT_TRUE(obs::ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": \"0\""), std::string::npos);
  // Names with JSON metacharacters must render escaped, not raw.
  std::vector<obs::SpanRecord> spans;
  spans.push_back(MakeSpan(1, obs::kNoSpan, "quote\"back\\\\slash", 0, 10, 0));
  const std::string escaped = obs::RenderChromeTraceJson(spans, 0);
  EXPECT_TRUE(obs::ParseJson(escaped).ok()) << escaped;
}

// ---------------------------------------------------------------------------
// JSON reader: RFC 8259 only, as strict as a validator.

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"two decimal points", R"({"version": 2.5.1, "metrics": {}})"},
      {"leading plus", R"({"version": +2, "metrics": {}})"},
      {"an expression", R"({"version": 2, "metrics": {}, "junk": 1-2})"},
      {"raw tab in a string", "{\"name\": \"a\tb\"}"},
      {"50,000 levels", nested(50000)},
      {"trailing comma in an array", "[1, 2,]"},
      {"trailing comma in an object", R"({"a": 1,})"},
      {"leading zero", "[01]"},
      {"unknown escape", R"(["\x"])"},
      {"short \\u", R"(["\u12"])"},
      {"non-hex \\u", R"(["\u12G4"])"},
      {"bytes after the value", "{} x"},
      {"empty input", ""},
      {"257 levels", nested(obs::kMaxJsonDepth + 1)},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(obs::ParseJson(c.text).ok()) << c.what;
  }
}

TEST(JsonReaderTest, AcceptsNestingUpToTheCap) {
  const int depth = obs::kMaxJsonDepth;
  const Result<obs::JsonValue> parsed =
      obs::ParseJson(std::string(depth, '[') + std::string(depth, ']'));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int levels = 1;
  for (const obs::JsonValue* v = &*parsed; !v->array->empty();
       v = &v->array->front()) {
    ++levels;
  }
  EXPECT_EQ(levels, depth);
}

TEST(JsonReaderTest, DecodesValuesInDocumentOrder) {
  const Result<obs::JsonValue> parsed = obs::ParseJson(
      " {\"b\": [true, false, null], \"a\": -1.5e2, "
      "\"s\": \"\\u00e9\\ud83d\\ude00\\/\\n\", \"b\": 0}\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->object->size(), 4u);
  EXPECT_EQ(parsed->object->front().first, "b");
  EXPECT_EQ(parsed->Find("b")->array->size(), 3u);  // The first "b".
  EXPECT_TRUE(parsed->Find("b")->array->front().boolean);
  EXPECT_EQ(parsed->Find("a")->NumberOr(0.0), -150.0);
  EXPECT_EQ(parsed->Find("s")->string, "\xc3\xa9\xf0\x9f\x98\x80/\n");
  EXPECT_EQ(parsed->Find("s")->NumberOr(7.0), 7.0);
  EXPECT_EQ(parsed->Find("missing"), nullptr);
}

// Every byte AppendJsonString can be handed reads back unchanged.
TEST(JsonReaderTest, WriterStringsReadBackByteEqual) {
  Rng rng(2014);
  std::array<bool, 256> seen{};
  for (int i = 0; i < 1000; ++i) {
    std::string bytes(rng.NextUint64Below(64), '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.NextUint64Below(256));
      seen[static_cast<unsigned char>(c)] = true;
    }
    std::string json;
    obs::internal::AppendJsonString(&json, bytes);
    const Result<obs::JsonValue> parsed = obs::ParseJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->string, bytes);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 256);
}

// ---------------------------------------------------------------------------
// Run report JSON.

data::Table MakeTable(std::uint64_t seed, std::size_t rows = 600) {
  Rng rng(seed);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 40),
      data::MarginSpec::Zipf("b", 30, 1.0),
      data::MarginSpec::Uniform("c", 20)};
  return *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(3, 0.4), rows, &rng);
}

TEST_F(ObsTest, RunReportJsonRoundTrips) {
  data::Table table = MakeTable(11);
  core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.num_threads = 4;
  Rng rng(5);
  auto result = core::Synthesize(table, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::BudgetAudit audit = obs::AuditFrom(result->budget);
  const std::string json = obs::RenderRunReportJson(&audit);
  const Result<obs::JsonValue> report = obs::ParseJson(json);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The audit must carry the full charge log and sum to options.epsilon.
  EXPECT_NEAR(audit.spent, options.epsilon, 1e-9);
  double entry_sum = 0.0;
  for (const auto& entry : audit.entries) entry_sum += entry.epsilon;
  EXPECT_NEAR(entry_sum, options.epsilon, 1e-9);
  const obs::JsonValue* budget = report->Find("budget");
  ASSERT_NE(budget, nullptr);
  const obs::JsonValue* entries = budget->Find("entries");
  ASSERT_TRUE(entries != nullptr &&
              entries->type == obs::JsonValue::Type::kArray);
  ASSERT_EQ(entries->array->size(), audit.entries.size());
  double report_sum = 0.0;
  for (const obs::JsonValue& entry : *entries->array) {
    const obs::JsonValue* epsilon = entry.Find("epsilon");
    ASSERT_NE(epsilon, nullptr);
    report_sum += epsilon->NumberOr(0.0);
  }
  EXPECT_NEAR(report_sum, options.epsilon, 1e-9);

#if DPCOPULA_OBS_ENABLED
  // Phase spans from the pipeline.
  for (const char* phase :
       {"\"synthesize\"", "\"budget_split\"", "\"margins\"",
        "\"correlation\"", "\"sampling\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  // Counters from at least 4 instrumented modules.
  int modules = 0;
  for (const char* prefix : {"\"core.", "\"kendall.", "\"marginals.",
                             "\"parallel.", "\"sampler."}) {
    if (json.find(prefix) != std::string::npos) ++modules;
  }
  EXPECT_GE(modules, 4);
#endif

  // Null audit must also render valid JSON (eval / sample-only modes).
  const std::string no_budget = obs::RenderRunReportJson(nullptr);
  EXPECT_TRUE(obs::ParseJson(no_budget).ok());
  EXPECT_EQ(no_budget.find("\"budget\""), std::string::npos);
}

// Sampler tiles and shards time into histograms only, so the span count of
// a release is fixed by its schema and the 2^16 cap is never approached by
// a large one.
TEST_F(ObsTest, TraceVolumeDependsOnSchemaNotRows) {
  const data::Table table = MakeTable(31);
  auto spans_for = [&](std::size_t rows) {
    obs::Tracer::Global().Reset();
    core::DpCopulaOptions options;
    options.num_synthetic_rows = rows;
    options.num_threads = 4;
    Rng rng(9);
    auto result = core::Synthesize(table, options, &rng);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
    return obs::Tracer::Global().Snapshot().size();
  };
  const std::size_t small = spans_for(10000);
  const std::size_t large = spans_for(100000);
  EXPECT_EQ(small, large);
#if DPCOPULA_OBS_ENABLED
  EXPECT_GT(small, 0u);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetHistogram("profile.inverse_cdf_seconds")
                ->Count(),
            100000 / 256);
#endif
}

// ---------------------------------------------------------------------------
// The core guarantee: observability never changes released bytes.

bool TablesEqual(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

TEST_F(ObsTest, ObsOnVersusOffIsByteIdentical) {
  data::Table table = MakeTable(21);
  core::DpCopulaOptions options;
  options.epsilon = 0.8;

  auto run = [&](bool obs_on, int threads) {
    obs::ObsConfig config;
    if (obs_on) {
      config.metrics = true;
      config.trace = true;
    }
    obs::SetObsConfig(config);
    options.num_threads = threads;
    Rng rng(123);
    auto result = core::Synthesize(table, options, &rng);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result->synthetic);
  };

  const data::Table off_1 = run(false, 1);
  const data::Table on_1 = run(true, 1);
  const data::Table on_7 = run(true, 7);
  const data::Table off_7 = run(false, 7);
  EXPECT_TRUE(TablesEqual(off_1, on_1));
  EXPECT_TRUE(TablesEqual(off_1, on_7));
  EXPECT_TRUE(TablesEqual(off_1, off_7));
#if DPCOPULA_OBS_ENABLED
  // The "on" runs timed every stage of the pipeline they reach.
  for (const char* stage :
       {"margin_publish", "rank_cache_build", "tau_pairs", "laplace_noise",
        "psd_repair", "cholesky", "gaussian_fill", "cholesky_apply",
        "inverse_cdf"}) {
    EXPECT_GT(obs::MetricsRegistry::Global()
                  .GetHistogram(std::string("profile.") + stage + "_seconds")
                  ->Count(),
              0)
        << stage;
  }
#endif
}

}  // namespace
}  // namespace dpcopula
