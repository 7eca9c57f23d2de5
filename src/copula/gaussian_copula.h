#ifndef DPCOPULA_COPULA_GAUSSIAN_COPULA_H_
#define DPCOPULA_COPULA_GAUSSIAN_COPULA_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/packed_symmetric.h"

namespace dpcopula::copula {

/// The Gaussian copula density of Definition 3.4 / Eq. (1):
///   c_P(u) = |P|^{-1/2} exp{ -1/2 z^T (P^{-1} - I) z },  z = Phi^{-1}(u).
/// Precomputes the Cholesky factorization of the correlation matrix so that
/// repeated density evaluations are O(m^2).
class GaussianCopula {
 public:
  /// Builds from a valid correlation matrix (unit diagonal, positive
  /// definite). Fails with NumericalError otherwise.
  static Result<GaussianCopula> Create(const linalg::Matrix& correlation);

  const linalg::Matrix& correlation() const { return correlation_; }
  std::size_t dims() const { return correlation_.rows(); }

  /// log c_P(u) for one pseudo-observation u in (0,1)^m.
  Result<double> LogDensity(const std::vector<double>& u) const;

  /// Same but on precomputed normal scores z = Phi^{-1}(u).
  double LogDensityFromScores(const std::vector<double>& z) const;

  /// Sum of LogDensity over the rows of column-major pseudo-observations
  /// (pseudo[j][i] = u_ij); the objective maximized by Algorithm 2.
  Result<double> LogLikelihood(
      const std::vector<std::vector<double>>& pseudo) const;

  /// Akaike Information Criterion for this fit: 2 * C(m,2) - 2 * loglik —
  /// the copula-selection score the paper's §3.2 mentions as future work.
  Result<double> Aic(const std::vector<std::vector<double>>& pseudo) const;

 private:
  linalg::Matrix correlation_;
  linalg::Matrix cholesky_;
  linalg::Matrix precision_;  // P^{-1}
  double log_det_ = 0.0;
};

/// Normal-scores (pseudo-)maximum-likelihood estimate of the Gaussian copula
/// correlation: the sample correlation matrix of z = Phi^{-1}(u). This is
/// the stationary point of the Gaussian-copula log-likelihood under the
/// unit-diagonal constraint and the estimator used per partition by
/// DPCopula-MLE (see DESIGN.md §3, substitution 5).
///
/// `cols[j]` points at the j-th column's `n` contiguous scores (m >= 1,
/// n >= 2). Rows are processed in 256-row tiles so all C(m,2)+m pair
/// accumulations read each tile while it is still cache-hot; each pair's
/// accumulator is carried across tiles in row order, so every coefficient
/// is the plain sequential sum (the column-vector oracle in
/// tests/reference/mle_reference.h gives the same bits). The result is
/// packed lower-triangular storage, one entry per coefficient. Reuses a
/// thread_local workspace: no allocations after the first call on a thread
/// beyond the returned matrix.
Result<linalg::PackedSymmetric> NormalScoresCorrelationTiledPacked(
    const double* const* cols, std::size_t m, std::size_t n);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_GAUSSIAN_COPULA_H_
