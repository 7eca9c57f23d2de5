#ifndef DPCOPULA_COPULA_FAMILY_VOTE_H_
#define DPCOPULA_COPULA_FAMILY_VOTE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace dpcopula::copula {

/// The degrees of freedom the private t-dof vote chooses among.
inline constexpr std::array<double, 6> kTDofGrid = {2.0,  4.0,  8.0,
                                                    16.0, 32.0, 64.0};

/// Per-block log-likelihoods of the two elliptical copula families — the
/// paper's §3.2/§6 future work of other copula families and a goodness-of-
/// fit test. For correlation P, z = Phi^{-1}(u) and x = T_nu^{-1}(u):
///   Gaussian (Def. 3.4, Eq. 1):
///     log c(u) = -1/2 log|P| - 1/2 z^T (P^{-1} - I) z
///   Student-t, with f the multivariate and f_nu the univariate t density:
///     log c(u) = log f_{P,nu}(x) - sum_j log f_nu(x_j)
/// The t copula adds the symmetric tail dependence the Gaussian cannot
/// express, and tends to it as nu grows.
struct FamilyLikelihoods {
  std::size_t dims = 0;
  /// gaussian[b]: the Gaussian log-likelihood of block b.
  std::vector<double> gaussian;
  /// t[b * kTDofGrid.size() + g]: block b's t log-likelihood at dof
  /// kTDofGrid[g].
  std::vector<double> t;

  std::size_t num_blocks() const { return gaussian.size(); }

  /// Block b's profile-likelihood dof, as an index into kTDofGrid: the
  /// first grid dof with the largest log-likelihood.
  std::size_t BestDof(std::size_t b) const;

  /// The dof vote's scores: per grid dof, the blocks whose BestDof it is.
  std::vector<double> DofVotes() const;

  /// The family vote's scores, [gaussian, t]: a block votes t when the t
  /// copula's AIC at its BestDof (C(m,2) + 1 parameters) is below the
  /// Gaussian's (C(m,2) parameters).
  std::vector<double> FamilyVotes() const;
};

/// The one pass behind both private family votes (sample-and-aggregate:
/// each block votes, then core::Fit draws the exponential mechanism over
/// the counts). Splits the column-major pseudo-observations (pseudo[j][i] =
/// u_ij, in (0, 1)) into `num_blocks` disjoint blocks of n / num_blocks
/// consecutive rows, leaving out the last n mod num_blocks, and sums each
/// block's Gaussian and t log-likelihoods in row order. The correlation is
/// factored once, and each column's distinct pseudo-observations are mapped
/// to their normal and t quantiles once per grid dof, so every block sum is
/// the same double a row-at-a-time density evaluation gives.
///
/// InvalidArgument when num_blocks is 0 or there are fewer than 4 rows per
/// block, when the correlation is not square with unit diagonal, or when
/// pseudo's columns do not match it; the Cholesky status when it is not
/// positive definite; OutOfRange when a used pseudo-observation lies
/// outside (0, 1).
Result<FamilyLikelihoods> FamilyLikelihoodTable(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, std::size_t num_blocks);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_FAMILY_VOTE_H_
