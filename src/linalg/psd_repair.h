#ifndef DPCOPULA_LINALG_PSD_REPAIR_H_
#define DPCOPULA_LINALG_PSD_REPAIR_H_

#include "common/result.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"

namespace dpcopula::linalg {

/// Options for the Rousseeuw–Molenberghs eigenvalue repair used by
/// Algorithm 5 step 3 of the paper.
struct PsdRepairOptions {
  /// Negative eigenvalues are replaced by max(|lambda| * use_abs,
  /// min_eigenvalue). With use_abs=false they are clamped to min_eigenvalue
  /// ("small value" variant); with true, to their absolute value.
  bool use_abs = false;
  double min_eigenvalue = 1e-6;
  /// Threads for the eigensolver's Householder update loops; 0 = hardware
  /// concurrency, <= 1 sequential. The repaired matrix is bit-identical for
  /// every value.
  int num_threads = 1;
};

/// Transforms a symmetric matrix with possibly negative eigenvalues into a
/// valid correlation matrix (positive definite, unit diagonal, entries in
/// [-1, 1]) via the eigenvalue method of Rousseeuw & Molenberghs (1993):
/// decompose R D R^T, lift negative eigenvalues, reconstruct, then rescale to
/// unit diagonal. Input must be square and symmetric.
Result<Matrix> RepairToCorrelation(const Matrix& a,
                                   const PsdRepairOptions& options = {});

/// Convenience: if `a` is already positive definite it is returned with its
/// diagonal renormalized to 1; otherwise it is repaired.
Result<Matrix> EnsureCorrelationMatrix(const Matrix& a,
                                       const PsdRepairOptions& options = {});

}  // namespace dpcopula::linalg

#endif  // DPCOPULA_LINALG_PSD_REPAIR_H_
