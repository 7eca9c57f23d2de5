// Test oracle for the symmetric eigensolver (linalg/eigen_sym.cc): cyclic
// Jacobi sweeps with full-matrix rotation updates, the solver that predates
// Householder tridiagonalization + QL. O(n^3) per sweep, so it is only
// practical up to m of a few hundred. Its eigenvalues agree with EigenSym's
// to round-off, not bit for bit. It does not validate its input and has no
// fail points.
#ifndef DPCOPULA_TESTS_REFERENCE_EIGEN_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_EIGEN_REFERENCE_H_

#include <cmath>
#include <string>

#include "common/result.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"

namespace dpcopula::reference {

// Sum of squared off-diagonal magnitudes; the Jacobi convergence criterion.
inline double OffDiagonalNorm(const linalg::Matrix& d) {
  const std::size_t n = d.rows();
  double off = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
  return std::sqrt(off);
}

inline double FrobeniusNorm(const linalg::Matrix& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * a(i, j);
  return std::sqrt(acc);
}

/// Eigendecomposition of the square, symmetric `a` with eigenvalues in
/// descending order. Converged once the off-diagonal norm is at most
/// `tol * ||a||_F`; NumericalError after `max_sweeps` sweeps otherwise.
inline Result<linalg::EigenDecomposition> EigenSymJacobi(
    const linalg::Matrix& a, int max_sweeps = 64, double tol = 1e-13) {
  using linalg::Matrix;
  const std::size_t n = a.rows();
  Matrix d = a;  // Will be driven to diagonal form.
  Matrix v = Matrix::Identity(n);
  // Convergence is declared when the off-diagonal mass is small *relative*
  // to the matrix itself. (An absolute test `<= tol` does not scale with
  // the input: at m >~ 100 the initial off-diagonal norm is O(m) and
  // round-off alone floors near eps * ||A||_F, so badly scaled input would
  // burn the whole sweep budget and fail spuriously.)
  const double threshold = tol * FrobeniusNorm(a);

  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (OffDiagonalNorm(d) <= threshold) {
      converged = true;
      break;
    }

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        // Stable Jacobi rotation parameters.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  // The loop tests convergence *before* each sweep, so after exhausting
  // max_sweeps the final sweep's result still needs checking.
  if (!converged && OffDiagonalNorm(d) > threshold) {
    return Status::NumericalError(
        "EigenSym did not converge within " + std::to_string(max_sweeps) +
        " Jacobi sweeps");
  }

  linalg::EigenDecomposition ed;
  ed.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) ed.values[i] = d(i, i);
  ed.vectors = std::move(v);
  linalg::internal::SortEigenpairsDescending(&ed);
  return ed;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_EIGEN_REFERENCE_H_
