#include "linalg/psd_repair.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpcopula::linalg {

namespace {

// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kPsdRepairSeconds =
    obs::MetricsRegistry::Global().GetHistogram("profile.psd_repair_seconds");

// Rescales a symmetric PSD matrix to unit diagonal and clamps off-diagonal
// entries into [-1, 1]. A lifted spectrum makes every reconstructed
// diagonal entry >= min_eigenvalue, so a non-positive (or non-finite) one
// means the reconstruction itself broke down; the pre-PR-9 behavior —
// divide that row by 1.0 and let the [-1, 1] clamp silently distort its
// correlations — released a structurally wrong matrix. Fail closed
// instead. The diagonal *value* is data-derived and stays out of the
// message; the row index is structural.
Status NormalizeToCorrelation(Matrix* a) {
  static obs::Counter* const normalize_failures =
      obs::MetricsRegistry::Global().GetCounter(
          "linalg.psd_normalize_failures");
  const std::size_t n = a->rows();
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double diag = (*a)(i, i);
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      normalize_failures->Increment();
      return Status::NumericalError(
          "PSD repair: non-positive diagonal after eigenvalue lift (row " +
          std::to_string(i) + ")");
    }
    d[i] = std::sqrt(diag);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      (*a)(i, j) /= d[i] * d[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    (*a)(i, i) = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) (*a)(i, j) = std::clamp((*a)(i, j), -1.0, 1.0);
    }
  }
  Symmetrize(a);
  return Status::OK();
}

}  // namespace

Result<Matrix> RepairToCorrelation(const Matrix& a,
                                   const PsdRepairOptions& options) {
  static obs::Counter* const eigen_retries =
      obs::MetricsRegistry::Global().GetCounter("linalg.eigen_retries");
  if (DPC_FAILPOINT("linalg.psd_repair")) {
    return failpoint::InjectedFault("linalg.psd_repair");
  }
  EigenSymOptions eigen_options;
  eigen_options.num_threads = options.num_threads;
  Result<EigenDecomposition> decomp = EigenSym(a, eigen_options);
  if (!decomp.ok() &&
      decomp.status().code() == StatusCode::kNumericalError) {
    // Recovery policy: one retry after diagonal shrinkage toward the
    // identity. The shrunk matrix (1-g)A + gI has the same eigenvectors
    // as A and strictly better-conditioned off-diagonal mass, so a shift
    // budget that was barely insufficient becomes sufficient; the
    // resulting repaired matrix is an explicitly *worse* (more
    // independent) correlation estimate, which is the accuracy downgrade
    // this degradation trades for availability. A second failure fails
    // closed.
    eigen_retries->Increment();
    obs::Log(obs::LogLevel::kWarn, "psd_repair.eigen_retry")
        .Field("dim", a.rows());
    constexpr double kShrink = 0.05;
    const Matrix shrunk =
        a.Scaled(1.0 - kShrink) + Matrix::Identity(a.rows()).Scaled(kShrink);
    decomp = EigenSym(shrunk, eigen_options);
  }
  DPC_ASSIGN_OR_RETURN(EigenDecomposition ed, std::move(decomp));
  for (double& lambda : ed.values) {
    if (lambda < options.min_eigenvalue) {
      lambda = options.use_abs
                   ? std::max(std::fabs(lambda), options.min_eigenvalue)
                   : options.min_eigenvalue;
    }
  }
  Matrix repaired = EigenReconstruct(ed);
  {
    Status normalized = NormalizeToCorrelation(&repaired);
    if (!normalized.ok()) return normalized;
  }
  // The clamp/renormalize can in principle reintroduce a tiny negative
  // eigenvalue; nudge the diagonal until Cholesky succeeds.
  double jitter = options.min_eigenvalue;
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (IsPositiveDefinite(repaired)) return repaired;
    for (std::size_t i = 0; i < repaired.rows(); ++i) {
      for (std::size_t j = 0; j < repaired.cols(); ++j) {
        if (i != j) repaired(i, j) /= (1.0 + jitter);
      }
    }
    jitter *= 4.0;
  }
  return Status::NumericalError("PSD repair failed to converge");
}

Result<Matrix> EnsureCorrelationMatrix(const Matrix& a,
                                       const PsdRepairOptions& options) {
  // Covers both the PD probe and (when needed) the eigen repair; the
  // sampler's own factorization is timed separately as "cholesky".
  obs::Span span("psd_repair", kPsdRepairSeconds);
  if (a.rows() != a.cols() || !a.IsSymmetric(1e-9)) {
    return Status::InvalidArgument(
        "EnsureCorrelationMatrix requires a square symmetric matrix");
  }
  Matrix candidate = a;
  bool in_range = true;
  for (std::size_t i = 0; i < a.rows() && in_range; ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double want = (i == j) ? 1.0 : candidate(i, j);
      if (i == j && std::fabs(candidate(i, j) - 1.0) > 1e-9) in_range = false;
      if (std::fabs(want) > 1.0 + 1e-12) in_range = false;
    }
  }
  if (in_range && IsPositiveDefinite(candidate)) return candidate;
  return RepairToCorrelation(candidate, options);
}

}  // namespace dpcopula::linalg
