#ifndef DPCOPULA_COPULA_GAUSSIAN_COPULA_H_
#define DPCOPULA_COPULA_GAUSSIAN_COPULA_H_

#include <cstddef>

#include "common/result.h"
#include "linalg/packed_symmetric.h"

namespace dpcopula::copula {

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
