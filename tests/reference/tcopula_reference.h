// Test oracles for the copula-family votes (copula/family_vote.cc).
//
// GaussianCopula and TCopula evaluate the two elliptical copula densities
// one row at a time, each pass mapping every cell through Phi^{-1} or the
// bisection T_nu^{-1}; EstimateTCopulaDof profiles the t log-likelihood over
// the dof grid and TCopulaFitsBetter compares the two families' AIC at that
// dof. The private votes split the pseudo-observations into disjoint row
// blocks, let each block vote, and draw the exponential mechanism over the
// counts. FamilyLikelihoodTable computes each block's log-likelihoods in one
// pass over distinct pseudo-observations; its sums, and therefore both vote
// vectors and every exponential-mechanism draw, agree with these bit for
// bit. SampleUniforms draws t-copula uniforms one row at a time for test
// data (SamplingPlan::StudentT is the production t sampler). Sequential; no
// logs or metrics.
#ifndef DPCOPULA_TESTS_REFERENCE_TCOPULA_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_TCOPULA_REFERENCE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "dp/mechanisms.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "stats/distributions.h"
#include "stats/normal.h"

namespace dpcopula::reference {

inline const std::vector<double> kDefaultDofGrid = {2.0,  4.0,  8.0,
                                                    16.0, 32.0, 64.0};

/// The Gaussian copula density of Definition 3.4 / Eq. (1):
///   c_P(u) = |P|^{-1/2} exp{ -1/2 z^T (P^{-1} - I) z },  z = Phi^{-1}(u).
class GaussianCopula {
 public:
  static Result<GaussianCopula> Create(const linalg::Matrix& correlation) {
    if (correlation.rows() != correlation.cols() || correlation.rows() == 0) {
      return Status::InvalidArgument("correlation matrix must be square");
    }
    for (std::size_t i = 0; i < correlation.rows(); ++i) {
      if (std::fabs(correlation(i, i) - 1.0) > 1e-8) {
        return Status::InvalidArgument(
            "correlation matrix must have unit diagonal");
      }
    }
    GaussianCopula c;
    c.correlation_ = correlation;
    DPC_ASSIGN_OR_RETURN(c.cholesky_, linalg::CholeskyDecompose(correlation));
    DPC_ASSIGN_OR_RETURN(c.precision_, linalg::CholeskyInverse(c.cholesky_));
    c.log_det_ = linalg::CholeskyLogDet(c.cholesky_);
    return c;
  }

  std::size_t dims() const { return correlation_.rows(); }

  double LogDensityFromScores(const std::vector<double>& z) const {
    const std::size_t m = dims();
    // z^T (P^{-1} - I) z.
    double quad = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < m; ++j) row += precision_(i, j) * z[j];
      quad += z[i] * (row - z[i]);
    }
    return -0.5 * log_det_ - 0.5 * quad;
  }

  Result<double> LogDensity(const std::vector<double>& u) const {
    if (u.size() != dims()) {
      return Status::InvalidArgument("LogDensity: dimension mismatch");
    }
    std::vector<double> z(u.size());
    for (std::size_t j = 0; j < u.size(); ++j) {
      if (!(u[j] > 0.0 && u[j] < 1.0)) {
        return Status::OutOfRange("pseudo-observation outside (0, 1)");
      }
      z[j] = stats::NormalInverseCdf(u[j]);
    }
    return LogDensityFromScores(z);
  }

  Result<double> LogLikelihood(
      const std::vector<std::vector<double>>& pseudo) const {
    if (pseudo.size() != dims()) {
      return Status::InvalidArgument("LogLikelihood: dimension mismatch");
    }
    const std::size_t n = pseudo.empty() ? 0 : pseudo[0].size();
    std::vector<double> u(dims());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dims(); ++j) u[j] = pseudo[j][i];
      DPC_ASSIGN_OR_RETURN(double ld, LogDensity(u));
      acc += ld;
    }
    return acc;
  }

  Result<double> Aic(const std::vector<std::vector<double>>& pseudo) const {
    DPC_ASSIGN_OR_RETURN(double ll, LogLikelihood(pseudo));
    const double m = static_cast<double>(dims());
    const double num_params = m * (m - 1.0) / 2.0;
    return 2.0 * num_params - 2.0 * ll;
  }

 private:
  linalg::Matrix correlation_;
  linalg::Matrix cholesky_;
  linalg::Matrix precision_;  // P^{-1}
  double log_det_ = 0.0;
};

/// The Student-t copula: for correlation P and dof nu,
///   c(u) = f_{P,nu}(x) / prod_j f_nu(x_j),   x_j = T_nu^{-1}(u_j).
class TCopula {
 public:
  static Result<TCopula> Create(const linalg::Matrix& correlation,
                                double dof) {
    if (!(dof > 0.0)) {
      return Status::InvalidArgument("t copula: dof must be > 0");
    }
    if (correlation.rows() != correlation.cols() || correlation.rows() == 0) {
      return Status::InvalidArgument("correlation matrix must be square");
    }
    for (std::size_t i = 0; i < correlation.rows(); ++i) {
      if (std::fabs(correlation(i, i) - 1.0) > 1e-8) {
        return Status::InvalidArgument(
            "correlation matrix must have unit diagonal");
      }
    }
    TCopula c;
    c.correlation_ = correlation;
    c.dof_ = dof;
    DPC_ASSIGN_OR_RETURN(c.cholesky_, linalg::CholeskyDecompose(correlation));
    DPC_ASSIGN_OR_RETURN(c.precision_, linalg::CholeskyInverse(c.cholesky_));
    c.log_det_ = linalg::CholeskyLogDet(c.cholesky_);
    return c;
  }

  std::size_t dims() const { return correlation_.rows(); }

  Result<double> LogDensity(const std::vector<double>& u) const {
    const std::size_t m = dims();
    if (u.size() != m) {
      return Status::InvalidArgument("LogDensity: dimension mismatch");
    }
    std::vector<double> x(m);
    for (std::size_t j = 0; j < m; ++j) {
      if (!(u[j] > 0.0 && u[j] < 1.0)) {
        return Status::OutOfRange("pseudo-observation outside (0, 1)");
      }
      x[j] = stats::StudentTInverseCdf(u[j], dof_);
    }
    // Quadratic form x^T P^{-1} x.
    double quad = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < m; ++j) row += precision_(i, j) * x[j];
      quad += x[i] * row;
    }
    const double md = static_cast<double>(m);
    // log multivariate-t density constant terms minus the product of the
    // univariate t densities.
    double log_c = stats::LogGamma((dof_ + md) / 2.0) +
                   (md - 1.0) * stats::LogGamma(dof_ / 2.0) -
                   md * stats::LogGamma((dof_ + 1.0) / 2.0) - 0.5 * log_det_;
    log_c -= (dof_ + md) / 2.0 * std::log1p(quad / dof_);
    for (std::size_t j = 0; j < m; ++j) {
      log_c += (dof_ + 1.0) / 2.0 * std::log1p(x[j] * x[j] / dof_);
    }
    return log_c;
  }

  Result<double> LogLikelihood(
      const std::vector<std::vector<double>>& pseudo) const {
    if (pseudo.size() != dims()) {
      return Status::InvalidArgument("LogLikelihood: dimension mismatch");
    }
    const std::size_t n = pseudo.empty() ? 0 : pseudo[0].size();
    std::vector<double> u(dims());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dims(); ++j) u[j] = pseudo[j][i];
      DPC_ASSIGN_OR_RETURN(double ld, LogDensity(u));
      acc += ld;
    }
    return acc;
  }

  /// AIC with C(m,2) + 1 parameters (correlations + dof).
  Result<double> Aic(const std::vector<std::vector<double>>& pseudo) const {
    DPC_ASSIGN_OR_RETURN(double ll, LogLikelihood(pseudo));
    const double m = static_cast<double>(dims());
    const double num_params = m * (m - 1.0) / 2.0 + 1.0;  // + dof.
    return 2.0 * num_params - 2.0 * ll;
  }

  /// Draws one m-vector of copula uniforms: z ~ N(0, P), w ~ chi2(nu),
  /// u_j = T_nu(z_j / sqrt(w / nu)).
  std::vector<double> SampleUniforms(Rng* rng) const {
    const std::size_t m = dims();
    std::vector<double> z(m), u(m);
    for (double& v : z) v = rng->NextGaussian();
    const double w = stats::SampleChiSquared(rng, dof_);
    const double scale = std::sqrt(dof_ / w);
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += cholesky_(i, k) * z[k];
      u[i] = stats::StudentTCdf(acc * scale, dof_);
    }
    return u;
  }

 private:
  linalg::Matrix correlation_;
  linalg::Matrix cholesky_;
  linalg::Matrix precision_;
  double log_det_ = 0.0;
  double dof_ = 4.0;
};

/// Profile estimate of the t-copula dof on `grid` (default
/// kDefaultDofGrid): the first grid dof with the largest log-likelihood.
inline Result<double> EstimateTCopulaDof(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, std::vector<double> grid = {}) {
  if (grid.empty()) grid = kDefaultDofGrid;
  double best_dof = grid[0];
  double best_ll = -1e300;
  for (double dof : grid) {
    DPC_ASSIGN_OR_RETURN(TCopula c, TCopula::Create(correlation, dof));
    DPC_ASSIGN_OR_RETURN(double ll, c.LogLikelihood(pseudo));
    if (ll > best_ll) {
      best_ll = ll;
      best_dof = dof;
    }
  }
  return best_dof;
}

/// True when the t copula at its profile dof has the lower AIC.
inline Result<bool> TCopulaFitsBetter(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation) {
  DPC_ASSIGN_OR_RETURN(double dof, EstimateTCopulaDof(pseudo, correlation));
  DPC_ASSIGN_OR_RETURN(TCopula t, TCopula::Create(correlation, dof));
  DPC_ASSIGN_OR_RETURN(GaussianCopula g, GaussianCopula::Create(correlation));
  DPC_ASSIGN_OR_RETURN(double aic_t, t.Aic(pseudo));
  DPC_ASSIGN_OR_RETURN(double aic_g, g.Aic(pseudo));
  return aic_t < aic_g;
}

/// Splits column-major pseudo-observations into `parts` disjoint row
/// blocks of n / parts rows; the last n mod parts rows are left out.
inline std::vector<std::vector<std::vector<double>>> SplitPseudo(
    const std::vector<std::vector<double>>& pseudo, std::size_t parts) {
  const std::size_t m = pseudo.size();
  const std::size_t n = pseudo.empty() ? 0 : pseudo[0].size();
  const std::size_t block = n / parts;
  std::vector<std::vector<std::vector<double>>> out;
  for (std::size_t p = 0; p < parts; ++p) {
    std::vector<std::vector<double>> chunk(m);
    for (std::size_t j = 0; j < m; ++j) {
      chunk[j].assign(
          pseudo[j].begin() + static_cast<std::ptrdiff_t>(p * block),
          pseudo[j].begin() + static_cast<std::ptrdiff_t>((p + 1) * block));
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

/// The dof vote's counts: one vote per block for its profile dof.
inline Result<std::vector<double>> DofVotes(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, std::size_t num_partitions) {
  const std::vector<double>& grid = kDefaultDofGrid;
  std::vector<double> votes(grid.size(), 0.0);
  for (const auto& chunk : SplitPseudo(pseudo, num_partitions)) {
    DPC_ASSIGN_OR_RETURN(double dof,
                         EstimateTCopulaDof(chunk, correlation, grid));
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (grid[g] == dof) {
        votes[g] += 1.0;
        break;
      }
    }
  }
  return votes;
}

/// The family vote's counts, [gaussian, t]: one vote per block.
inline Result<std::vector<double>> FamilyVotes(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, std::size_t num_partitions) {
  std::vector<double> votes(2, 0.0);  // [gaussian, t].
  for (const auto& chunk : SplitPseudo(pseudo, num_partitions)) {
    DPC_ASSIGN_OR_RETURN(bool t_wins, TCopulaFitsBetter(chunk, correlation));
    votes[t_wins ? 1 : 0] += 1.0;
  }
  return votes;
}

/// The private dof choice: DofVotes, then the exponential mechanism on the
/// vote counts (sensitivity 1).
inline Result<double> EstimateTCopulaDofPrivate(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, double epsilon, Rng* rng,
    std::size_t num_partitions = 10) {
  if (pseudo.empty() || pseudo[0].size() < num_partitions * 4) {
    return Status::InvalidArgument(
        "t dof estimation: too few rows for the requested partitions");
  }
  DPC_ASSIGN_OR_RETURN(std::vector<double> votes,
                       DofVotes(pseudo, correlation, num_partitions));
  DPC_ASSIGN_OR_RETURN(std::size_t pick,
                       dp::ExponentialMechanism(rng, votes, epsilon, 1.0));
  return kDefaultDofGrid[pick];
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_TCOPULA_REFERENCE_H_
