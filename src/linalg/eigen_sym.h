#ifndef DPCOPULA_LINALG_EIGEN_SYM_H_
#define DPCOPULA_LINALG_EIGEN_SYM_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace dpcopula::linalg {

/// Eigendecomposition A = V diag(values) V^T of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Options for the two-stage symmetric eigensolver: Householder
/// tridiagonalization followed by implicit-shift QL with eigenvector
/// accumulation. O(n^3) total with a small constant — sized for the
/// high-dimension (m = 100-500) correlation matrices of the estimators.
struct EigenSymOptions {
  /// Implicit-shift budget per eigenvalue.
  int max_ql_iterations = 48;
  /// Threads for the Householder update loops; 0 = hardware concurrency,
  /// <= 1 sequential. The shard decomposition never changes a released bit.
  int num_threads = 1;
};

/// Symmetric eigensolver. Robust and accurate for the m x m correlation
/// matrices this library handles (m up to a few hundred). Returns
/// InvalidArgument for non-square/non-symmetric input and NumericalError if
/// the iteration budget runs out (callers such as psd_repair treat that as
/// retryable).
Result<EigenDecomposition> EigenSym(const Matrix& a,
                                    const EigenSymOptions& options = {});

/// Reconstructs V diag(values) V^T — used by tests and the PSD repair.
Matrix EigenReconstruct(const EigenDecomposition& ed);

namespace internal {

/// Stage 1 of EigenSym: Householder reduction of the symmetric matrix in
/// `*z` to tridiagonal form. On return `*d` holds the diagonal, `*e` the
/// subdiagonal in e[1..n-1] (e[0] = 0), and `*z` the accumulated orthogonal
/// transform Q with A = Q T Q^T. Reads/updates only the lower triangle of
/// the shrinking active block; the per-row update loops are sharded over
/// `num_threads` with bit-identical output for any value. Exposed for the
/// kernel tests.
void HouseholderTridiagonalize(Matrix* z, std::vector<double>* d,
                               std::vector<double>* e, int num_threads);

/// Stage 2 of EigenSym: implicit-shift QL on the tridiagonal (d, e) with
/// the rotations accumulated into the columns of `*z`. On success `*d`
/// holds the (unsorted) eigenvalues and column k of `*z` the eigenvector
/// for d[k]. A subdiagonal entry e[m] is treated as zero once |e[m]| <=
/// 1e-13 * (|d[m]| + |d[m+1]|), i.e. relative to its two diagonal
/// neighbours. Returns NumericalError when any eigenvalue exceeds
/// `max_iterations` shifts. Exposed for the kernel tests.
Status TridiagQL(std::vector<double>* d, std::vector<double>* e, Matrix* z,
                 int max_iterations);

/// Sorts (values[k], column k of vectors) pairs by descending eigenvalue —
/// EigenSym's output convention.
void SortEigenpairsDescending(EigenDecomposition* ed);

/// EigenSym's body (input already validated, failpoint already consulted).
Result<EigenDecomposition> EigenSymTridiagQL(const Matrix& a,
                                             const EigenSymOptions& options);

}  // namespace internal

}  // namespace dpcopula::linalg

#endif  // DPCOPULA_LINALG_EIGEN_SYM_H_
