#include "copula/kendall_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "linalg/cholesky.h"
#include "linalg/packed_symmetric.h"
#include "linalg/psd_repair.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"
#include "stats/kendall.h"

namespace dpcopula::copula {

std::int64_t AdequateKendallSampleSize(std::size_t m, double epsilon2) {
  const double md = static_cast<double>(m);
  // Paper §4.2: the sample is adequate once n̂ > 50·m(m−1)/ε₂ − 1, so the
  // smallest adequate size is the smallest integer strictly greater than
  // that bound.
  const double bound = 50.0 * md * (md - 1.0) / epsilon2 - 1.0;
  // Tiny ε₂ pushes the bound past what int64 can hold (casting an
  // out-of-range double is UB); saturate instead — callers min() against
  // the actual row count anyway.
  constexpr double kInt64Safe = 9.2e18;
  if (!(bound < kInt64Safe)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  const double ceiled = std::ceil(bound);
  // ceil() of an integral bound returns the bound itself, which does not
  // satisfy the strict inequality.
  return static_cast<std::int64_t>(ceiled) + (ceiled == bound ? 1 : 0);
}

namespace {

// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kRankCacheBuildSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.rank_cache_build_seconds");
obs::Histogram* const kTauPairsSeconds =
    obs::MetricsRegistry::Global().GetHistogram("profile.tau_pairs_seconds");
obs::Histogram* const kLaplaceNoiseSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.laplace_noise_seconds");

/// First failure across a deterministic index space: the recorded status is
/// the one with the lowest index, independent of which thread saw it first
/// (and therefore independent of the thread count).
class FirstFailure {
 public:
  void Record(std::size_t index, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index < index_) {
      index_ = index;
      status_ = std::move(status);
    }
  }
  bool failed() const { return index_ != kNone; }
  const Status& status() const { return status_; }

 private:
  static constexpr std::size_t kNone =
      std::numeric_limits<std::size_t>::max();
  std::mutex mu_;
  std::size_t index_ = kNone;
  Status status_ = Status::OK();
};

}  // namespace

Result<KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const KendallEstimatorOptions& options) {
  static obs::Counter* const pairs_counter =
      obs::MetricsRegistry::Global().GetCounter("kendall.pairs_computed");
  static obs::Counter* const contingency_counter =
      obs::MetricsRegistry::Global().GetCounter("kendall.contingency_pairs");
  static obs::Counter* const subsampled_runs =
      obs::MetricsRegistry::Global().GetCounter("kendall.subsampled_runs");
  static obs::Counter* const repairs_counter =
      obs::MetricsRegistry::Global().GetCounter("kendall.psd_repairs");
  static obs::Gauge* const subsample_gauge =
      obs::MetricsRegistry::Global().GetGauge("kendall.subsample_rows");
  obs::Span estimate_span("kendall.estimate");

  const std::size_t m = table.num_columns();
  const auto n = static_cast<std::int64_t>(table.num_rows());
  if (m < 2) {
    return Status::InvalidArgument("Kendall estimator needs >= 2 columns");
  }
  if (n < 2) {
    return Status::InvalidArgument("Kendall estimator needs >= 2 rows");
  }
  if (!(epsilon2 > 0.0)) {
    return Status::InvalidArgument("epsilon2 must be > 0");
  }

  // Decide the working sample.
  std::int64_t n_used = n;
  if (options.subsample) {
    n_used = std::min(n, AdequateKendallSampleSize(m, epsilon2));
  }
  n_used = std::max<std::int64_t>(n_used, 2);
  subsample_gauge->Set(static_cast<double>(n_used));
  if (n_used < n) subsampled_runs->Increment();
  obs::Log(obs::LogLevel::kDebug, "kendall.estimate")
      .Field("columns", m)
      .Field("rows", n)
      .Field("rows_used", n_used)
      .Field("epsilon2", epsilon2);

  // Columns restricted to the subsample (a single shared subsample keeps
  // the pairwise estimates mutually consistent). At full size the table's
  // columns are referenced in place — no copy.
  std::vector<std::vector<double>> subsample_storage;
  std::vector<const std::vector<double>*> cols(m);
  if (n_used == n) {
    for (std::size_t j = 0; j < m; ++j) cols[j] = &table.column(j);
  } else {
    // Partial Fisher–Yates to draw n_used distinct row indices.
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    for (std::int64_t i = 0; i < n_used; ++i) {
      const auto j = static_cast<std::size_t>(
          rng->NextInt64InRange(i, n - 1));
      std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
    }
    subsample_storage.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      subsample_storage[j].resize(static_cast<std::size_t>(n_used));
      for (std::int64_t i = 0; i < n_used; ++i) {
        subsample_storage[j][static_cast<std::size_t>(i)] =
            table.column(j)[idx[static_cast<std::size_t>(i)]];
      }
      cols[j] = &subsample_storage[j];
    }
  }

  // Shared per-column rank caches: one O(n log n) sort per column, reused
  // by all m-1 pairs touching it — O(m n log n) total instead of a sort per
  // pair. Columns are independent, so the builds run on the pool.
  std::vector<stats::RankColumn> ranks(m);
  {
    obs::Span rank_span("kendall.rank_build");
    const obs::SpanId rank_span_id = rank_span.id();
    FirstFailure rank_failure;
    ParallelFor(
        0, m, /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            obs::Span stage("rank_cache_build", rank_span_id,
                            kRankCacheBuildSeconds);
            auto built = stats::BuildRankColumn(*cols[j]);
            if (!built.ok()) {
              rank_failure.Record(j, built.status());
              continue;
            }
            ranks[j] = std::move(built).ValueOrDie();
          }
        },
        options.num_threads);
    if (rank_failure.failed()) return rank_failure.status();
  }

  // Lemma 4.1: sensitivity of one pairwise tau is 4 / (n_used + 1); each of
  // the C(m,2) coefficients receives epsilon2 / C(m,2) (Theorem 4.2).
  const double num_pairs = static_cast<double>(m) * (m - 1) / 2.0;
  const double sensitivity = 4.0 / (static_cast<double>(n_used) + 1.0);
  const double scale = num_pairs * sensitivity / epsilon2;

  // Enumerate the C(m,2) pairs and pre-derive one RNG stream per pair from
  // the caller's generator; the result is then independent of the thread
  // count (bit-identical sequential vs parallel).
  struct Pair {
    std::size_t j, k;
    Rng rng;
  };
  std::vector<Pair> pairs;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      pairs.push_back({j, k, rng->Split()});
    }
  }

  // One pair per shard on the shared pool: each pair already owns its split
  // RNG, so the result is bit-identical for any thread count. On failure
  // every pair still runs (no early exit) so the propagated status — the
  // lowest-index pair's — is the same at every thread count.
  std::vector<double> rhos(pairs.size(), 0.0);
  std::int64_t contingency_pairs = 0;
  for (const Pair& pair : pairs) {
    if (stats::UseContingencyKernel(static_cast<std::uint64_t>(n_used),
                                    ranks[pair.j].num_distinct,
                                    ranks[pair.k].num_distinct)) {
      ++contingency_pairs;
    }
  }
  FirstFailure pair_failure;
  const obs::SpanId estimate_span_id = estimate_span.id();
  ParallelFor(
      0, pairs.size(), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        // Per-thread reusable workspace: grows to the high-water mark on
        // the first pair this worker sees, then every later pair (in this
        // call and any future estimate) runs allocation-free.
        static thread_local stats::TauWorkspace workspace;
        for (std::size_t i = begin; i < end; ++i) {
          Pair& pair = pairs[i];
          Result<double> tau = [&]() -> Result<double> {
            obs::Span stage("tau_pairs", estimate_span_id, kTauPairsSeconds);
            return DPC_FAILPOINT_AT("kendall.pair_tau", i)
                       ? Result<double>(
                             failpoint::InjectedFault("kendall.pair_tau"))
                       : stats::KendallTauFromRanks(ranks[pair.j],
                                                    ranks[pair.k], &workspace);
          }();
          if (!tau.ok()) {
            pair_failure.Record(i, tau.status());
            continue;
          }
          obs::Span noise_stage("laplace_noise", estimate_span_id,
                                kLaplaceNoiseSeconds);
          double noisy_tau = *tau + stats::SampleLaplace(&pair.rng, scale);
          // Clamping into the valid tau range is post-processing and costs
          // no privacy.
          noisy_tau = std::clamp(noisy_tau, -1.0, 1.0);
          rhos[i] = std::sin(M_PI / 2.0 * noisy_tau);  // Eq. (4).
        }
      },
      options.num_threads);
  if (pair_failure.failed()) return pair_failure.status();
  pairs_counter->Add(static_cast<std::int64_t>(pairs.size()));
  contingency_counter->Add(contingency_pairs);

  // Accumulate the correlation build in packed lower-triangular form —
  // one store per coefficient instead of a mirrored pair — and expand to
  // dense form once, at the PSD-repair boundary.
  linalg::PackedSymmetric packed(m);
  for (std::size_t j = 0; j < m; ++j) packed.at(j, j) = 1.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    packed.at(pairs[i].k, pairs[i].j) = rhos[i];  // Pairs have j < k.
  }
  linalg::Matrix p = packed.ToMatrix();

  KendallEstimate est;
  est.rows_used = n_used;
  est.per_pair_epsilon = epsilon2 / num_pairs;
  est.laplace_scale = scale;
  est.contingency_pairs = contingency_pairs;
  est.repaired = !linalg::IsPositiveDefinite(p);
  if (est.repaired) repairs_counter->Increment();
  linalg::PsdRepairOptions repair_options;
  repair_options.num_threads = options.num_threads;
  DPC_ASSIGN_OR_RETURN(est.correlation,
                       linalg::EnsureCorrelationMatrix(p, repair_options));
  return est;
}

}  // namespace dpcopula::copula
