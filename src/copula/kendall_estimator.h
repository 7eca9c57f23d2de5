#ifndef DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_
#define DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/matrix.h"

namespace dpcopula::copula {

/// Options for the DP Kendall's-tau correlation estimator (Algorithm 5).
struct KendallEstimatorOptions {
  /// If true and the data is larger than the adequate sample size n_hat >
  /// 50 m (m-1) / epsilon2 - 1 (paper §4.2, complexity discussion), the tau
  /// coefficients are computed on a random subsample of that size with the
  /// noise enlarged from 4/(n+1) to 4/(n_hat+1).
  bool subsample = true;

  /// Worker threads (shared ThreadPool) for the rank-cache builds and the
  /// C(m,2) pairwise tau computations — the dominant cost at high m. Each
  /// pair derives its own RNG stream from the caller's generator by pair
  /// index, so results are bit-identical regardless of thread count. 0 =
  /// hardware concurrency, <= 1 = sequential.
  int num_threads = 1;
};

/// Diagnostics reported alongside the private correlation matrix.
struct KendallEstimate {
  linalg::Matrix correlation;     // The DP correlation matrix P~ (valid).
  std::int64_t rows_used = 0;     // n or n_hat.
  double per_pair_epsilon = 0.0;  // epsilon2 / C(m,2).
  double laplace_scale = 0.0;     // Noise scale applied to each tau.
  bool repaired = false;          // True if eigenvalue PSD repair fired.
  /// Pairs served by the contingency-table kernel (the rest took the
  /// merge-count path).
  std::int64_t contingency_pairs = 0;
};

/// Computes the differentially private correlation matrix of Algorithm 5:
/// noisy pairwise Kendall's tau (sensitivity 4/(n+1), Lemma 4.1) from one
/// rank structure per column shared by every pair (see
/// stats::KendallTauFromRanks), the sin(pi/2 * tau) transform (Eq. 4), and
/// the Rousseeuw–Molenberghs eigenvalue repair when the noisy matrix is not
/// positive definite. Consumes `epsilon2` in total across all C(m,2)
/// coefficients.
Result<KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const KendallEstimatorOptions& options = {});

/// The paper's adequate subsample size: the smallest integer strictly
/// greater than 50 m (m-1) / epsilon2 - 1 (one less than
/// ceil(50 m (m-1) / epsilon2) whenever that bound is not an integer).
/// Saturates at INT64_MAX.
std::int64_t AdequateKendallSampleSize(std::size_t m, double epsilon2);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_
