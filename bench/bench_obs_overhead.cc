// Overhead of the observability layer on the end-to-end pipeline.
//
// Three runtime modes over identical Synthesize runs (same data, same
// seed, so the work is byte-identical by the determinism guarantee):
//
//   disabled         ObsConfig all off — at most two relaxed atomic loads
//                    per instrumentation site. This is the default for
//                    library users and the floor the other modes are read
//                    against.
//   metrics          counters, gauges and histograms on (the stage
//                    histograms among them), tracing off.
//   metrics+trace    spans recorded too, as `dpcopula --trace-json`
//                    configures.
//
// Then micro-costs of the primitives themselves (Observe, Quantile, and an
// obs::Span off, armed with a histogram, and armed with a name and a
// histogram), and finally the enforcement run: the tiled sampler hot path
// with metrics on (every stage histogram live) must stay within 2% of the
// same path with obs disabled — the budget DESIGN.md promises. It is timed
// in rounds that run the modes back to back in rotating order and gated on
// the median per-round ratio, so drift of a shared host between modes does
// not read as overhead. A blown budget exits non-zero; set
// DPCOPULA_BENCH_NO_ENFORCE=1 to report without gating (e.g. on wildly
// noisy shared runners). The metrics+trace sampler overhead is printed
// beside it, ungated.
//
// Reports median seconds per run and the overhead relative to `disabled`.
// Run with DPCOPULA_BENCH_FULL=1 for a paper-scale table.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "data/generator.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/empirical_cdf.h"

using namespace dpcopula;  // NOLINT(build/namespaces) — bench binary.

namespace {

double MedianRunSeconds(const data::Table& table,
                        const core::DpCopulaOptions& options,
                        std::size_t repeats) {
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    Rng rng(1234);  // Same seed every repeat: identical work.
    bench::Timer timer;
    auto result = core::Synthesize(table, options, &rng);
    seconds.push_back(timer.Seconds());
    if (!result.ok()) {
      std::fprintf(stderr, "synthesize failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

// ---------------------------------------------------------------------------
// Micro-costs of the primitives (ns per op, amortized over a tight loop).

double NanosPerOp(std::size_t iters, double seconds) {
  return 1e9 * seconds / static_cast<double>(iters);
}

void RunMicroCosts() {
  constexpr std::size_t kIters = 1 << 20;

  obs::ObsConfig on;
  on.metrics = true;
  obs::SetObsConfig(on);
  obs::MetricsRegistry::Global().ResetAll();

  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.micro_seconds");
  bench::Timer observe_timer;
  for (std::size_t i = 0; i < kIters; ++i) {
    h->Observe(1e-9 * static_cast<double>((i & 0xffff) + 1));
  }
  const double observe_ns = NanosPerOp(kIters, observe_timer.Seconds());

  // Quantile walks the bucket array — a report-time cost, not a hot-path
  // one, but it should stay microseconds even over all 1216 buckets.
  constexpr std::size_t kQuantileIters = 1 << 12;
  volatile double sink = 0.0;
  bench::Timer quantile_timer;
  for (std::size_t i = 0; i < kQuantileIters; ++i) {
    sink = sink + h->Quantile(0.99);
  }
  const double quantile_ns =
      NanosPerOp(kQuantileIters, quantile_timer.Seconds());

  bench::Timer histogram_timer;
  for (std::size_t i = 0; i < kIters; ++i) {
    obs::Span span(h);
  }
  const double span_histogram_ns =
      NanosPerOp(kIters, histogram_timer.Seconds());

  // A named span appends a record; stay under the tracer cap so every one
  // is recorded rather than counted as dropped.
  constexpr std::size_t kNamedIters = obs::Tracer::kMaxSpans / 2;
  on.trace = true;
  obs::SetObsConfig(on);
  obs::Tracer::Global().Reset();
  bench::Timer named_timer;
  for (std::size_t i = 0; i < kNamedIters; ++i) {
    obs::Span span("tau_pairs", h);
  }
  const double span_named_ns = NanosPerOp(kNamedIters, named_timer.Seconds());
  obs::Tracer::Global().Reset();

  obs::SetObsConfig(obs::ObsConfig{});
  bench::Timer off_timer;
  for (std::size_t i = 0; i < kIters; ++i) {
    obs::Span span("tau_pairs", h);
  }
  const double span_off_ns = NanosPerOp(kIters, off_timer.Seconds());

  std::printf("\n--- primitive micro-costs (ns/op) ---\n");
  bench::PrintSeriesHeader("primitive", {"ns_per_op"});
  bench::PrintSeriesRowLabel("observe", {observe_ns});
  bench::PrintSeriesRowLabel("quantile_p99", {quantile_ns});
  bench::PrintSeriesRowLabel("span_off", {span_off_ns});
  bench::PrintSeriesRowLabel("span_histogram", {span_histogram_ns});
  bench::PrintSeriesRowLabel("span_named", {span_named_ns});
}

// ---------------------------------------------------------------------------
// Enforcement: the sampler hot path with metrics on within 2% of obs off.

double SamplerSeconds(const data::Schema& schema,
                      const std::vector<stats::EmpiricalCdf>& cdfs,
                      const linalg::Matrix& corr, std::size_t rows) {
  Rng rng(99);
  bench::Timer timer;
  auto table = copula::SampleSyntheticData(schema, cdfs, corr, rows, &rng,
                                           /*num_threads=*/1);
  const double seconds = timer.Seconds();
  if (!table.ok()) {
    std::fprintf(stderr, "sampler failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int RunSamplerBudget(std::size_t rows) {
  constexpr std::size_t kDims = 8;
  constexpr std::size_t kRounds = 41;
  std::vector<data::Attribute> attrs;
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < kDims; ++j) {
    attrs.push_back({"x" + std::to_string(j), 64});
    std::vector<double> counts(64);
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = static_cast<double>(v + 1);
    }
    cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
  }
  const data::Schema schema(attrs);
  const linalg::Matrix corr = *data::Equicorrelation(kDims, 0.4);

  // Each round times off, metrics and metrics+trace back to back, the
  // order rotating between rounds, and yields each mode's ratio to that
  // round's off run: host drift slower than a round cancels out of it.
  obs::ObsConfig modes[3];
  modes[1].metrics = true;
  modes[2].metrics = true;
  modes[2].trace = true;
  obs::SetObsConfig(modes[0]);
  SamplerSeconds(schema, cdfs, corr, rows);  // Warm-up.
  std::vector<double> seconds[3];
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t mode = (round + k) % 3;
      obs::SetObsConfig(modes[mode]);
      obs::Tracer::Global().Reset();
      seconds[mode].push_back(SamplerSeconds(schema, cdfs, corr, rows));
    }
  }
  obs::SetObsConfig(obs::ObsConfig{});
  auto overhead_percent = [&seconds](std::size_t mode) {
    std::vector<double> ratio;
    for (std::size_t round = 0; round < kRounds; ++round) {
      ratio.push_back(seconds[mode][round] / seconds[0][round]);
    }
    return 100.0 * (Median(ratio) - 1.0);
  };

  const double overhead = overhead_percent(1);
  std::printf("\n--- sampler hot path, metrics budget (n=%zu, m=%zu, "
              "%zu rounds) ---\n",
              rows, kDims, kRounds);
  bench::PrintSeriesHeader("mode", {"median_s", "overhead_%"});
  bench::PrintSeriesRowLabel("disabled", {Median(seconds[0]), 0.0});
  bench::PrintSeriesRowLabel("metrics", {Median(seconds[1]), overhead});
  bench::PrintSeriesRowLabel("metrics+trace (ungated)",
                             {Median(seconds[2]), overhead_percent(2)});

  constexpr double kBudgetPercent = 2.0;
  if (overhead > kBudgetPercent) {
    if (std::getenv("DPCOPULA_BENCH_NO_ENFORCE") != nullptr) {
      std::printf("over the %.1f%% budget (enforcement disabled)\n",
                  kBudgetPercent);
      return 0;
    }
    std::fprintf(stderr,
                 "FAIL: sampler with metrics on %.2f%% over obs off "
                 "(budget %.1f%%)\n",
                 overhead, kBudgetPercent);
    return 1;
  }
  std::printf("within the %.1f%% budget\n", kBudgetPercent);
  return 0;
}

}  // namespace

int main() {
  query::ExperimentConfig cfg = query::ExperimentConfig::FromEnvironment();
  const std::size_t rows =
      static_cast<std::size_t>(std::min<std::int64_t>(cfg.num_tuples, 200000));
  constexpr std::size_t kColumns = 6;
  constexpr std::size_t kRepeats = 5;

  Rng data_rng(cfg.seed);
  data::Table table = bench::MakeGaussianTable(rows, kColumns, 64, &data_rng);

  core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.num_threads = 0;  // All hardware threads — the worst case for
                            // shared-counter contention.

  std::printf("=== observability overhead (n=%zu, m=%zu, %zu repeats) ===\n",
              rows, kColumns, kRepeats);

  struct Mode {
    const char* name;
    obs::ObsConfig config;
  };
  std::vector<Mode> modes(3);
  modes[0].name = "disabled";
  modes[1].name = "metrics";
  modes[1].config.metrics = true;
  modes[2].name = "metrics+trace";
  modes[2].config.metrics = true;
  modes[2].config.trace = true;

  double baseline = 0.0;
  bench::PrintSeriesHeader("mode", {"median_s", "overhead_%"});
  for (const Mode& mode : modes) {
    obs::SetObsConfig(mode.config);
    obs::MetricsRegistry::Global().ResetAll();
    obs::Tracer::Global().Reset();
    // One warm-up run outside the timer (pool spin-up, registry fills).
    MedianRunSeconds(table, options, 1);
    const double median = MedianRunSeconds(table, options, kRepeats);
    if (baseline == 0.0) baseline = median;
    bench::PrintSeriesRowLabel(
        mode.name, {median, 100.0 * (median - baseline) / baseline});
  }
  obs::SetObsConfig(obs::ObsConfig{});

  RunMicroCosts();
  return RunSamplerBudget(rows);
}
