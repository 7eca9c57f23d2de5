// Test oracle for the DP Kendall estimator (copula/kendall_estimator.cc):
// Algorithm 5 with one stats::KendallTau sort per pair, the O(m^2 n log n)
// kernel that predates the shared per-column rank caches. It draws the same
// subsample and the same per-pair Split streams as the production
// estimator, in the same order, so the two release bit-identical matrices.
// Sequential, with no fail points, logs or metrics.
#ifndef DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "data/table.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/psd_repair.h"
#include "stats/distributions.h"
#include "stats/kendall.h"

namespace dpcopula::reference {

inline Result<copula::KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::KendallEstimatorOptions& options = {}) {
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

  std::int64_t n_used = n;
  if (options.subsample) {
    n_used = std::min(n, copula::AdequateKendallSampleSize(m, epsilon2));
  }
  n_used = std::max<std::int64_t>(n_used, 2);

  // One shared subsample: a partial Fisher–Yates over the row indices.
  std::vector<std::vector<double>> cols(m);
  if (n_used == n) {
    for (std::size_t j = 0; j < m; ++j) cols[j] = table.column(j);
  } else {
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    for (std::int64_t i = 0; i < n_used; ++i) {
      const auto j = static_cast<std::size_t>(
          rng->NextInt64InRange(i, n - 1));
      std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      cols[j].resize(static_cast<std::size_t>(n_used));
      for (std::int64_t i = 0; i < n_used; ++i) {
        cols[j][static_cast<std::size_t>(i)] =
            table.column(j)[idx[static_cast<std::size_t>(i)]];
      }
    }
  }

  // Lemma 4.1 sensitivity 4 / (n_used + 1), epsilon2 / C(m,2) per pair.
  const double num_pairs = static_cast<double>(m) * (m - 1) / 2.0;
  const double sensitivity = 4.0 / (static_cast<double>(n_used) + 1.0);
  const double scale = num_pairs * sensitivity / epsilon2;

  // Every pair's stream is split off `rng` before any pair draws noise.
  std::vector<Rng> pair_rngs;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) pair_rngs.push_back(rng->Split());
  }
  linalg::Matrix p = linalg::Matrix::Identity(m);
  std::size_t pair = 0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k, ++pair) {
      DPC_ASSIGN_OR_RETURN(const double tau,
                           stats::KendallTau(cols[j], cols[k]));
      double noisy_tau = tau + stats::SampleLaplace(&pair_rngs[pair], scale);
      noisy_tau = std::clamp(noisy_tau, -1.0, 1.0);
      p(j, k) = p(k, j) = std::sin(M_PI / 2.0 * noisy_tau);  // Eq. (4).
    }
  }

  copula::KendallEstimate est;
  est.rows_used = n_used;
  est.per_pair_epsilon = epsilon2 / num_pairs;
  est.laplace_scale = scale;
  est.repaired = !linalg::IsPositiveDefinite(p);
  linalg::PsdRepairOptions repair_options;
  repair_options.num_threads = options.num_threads;
  DPC_ASSIGN_OR_RETURN(est.correlation,
                       linalg::EnsureCorrelationMatrix(p, repair_options));
  return est;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_
