#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/failpoint.h"

namespace dpcopula::linalg {

namespace internal {

void SortEigenpairsDescending(EigenDecomposition* ed) {
  const std::size_t n = ed->values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return ed->values[i] > ed->values[j];
  });
  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = ed->values[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      sorted_vectors(i, j) = ed->vectors(i, order[j]);
  }
  ed->values = std::move(sorted_values);
  ed->vectors = std::move(sorted_vectors);
}

}  // namespace internal

Result<EigenDecomposition> EigenSym(const Matrix& a,
                                    const EigenSymOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSym requires a square matrix");
  }
  if (!a.IsSymmetric(1e-9)) {
    return Status::InvalidArgument("EigenSym requires a symmetric matrix");
  }
  // This site simulates the iteration budget running out, so it surfaces as
  // the same NumericalError real non-convergence produces — that is what
  // lets the fault exercise callers' retry policies (psd_repair shrinkage).
  if (DPC_FAILPOINT("linalg.eigen.converge")) {
    return Status::NumericalError(
        "injected fault at fail point 'linalg.eigen.converge'");
  }
  return internal::EigenSymTridiagQL(a, options);
}

Matrix EigenReconstruct(const EigenDecomposition& ed) {
  const std::size_t n = ed.values.size();
  Matrix scaled = ed.vectors;  // V diag(values)
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) scaled(i, j) *= ed.values[j];
  return scaled * ed.vectors.Transpose();
}

}  // namespace dpcopula::linalg
