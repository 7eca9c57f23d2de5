#include "copula/family_vote.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/cholesky.h"
#include "stats/distributions.h"
#include "stats/kendall.h"
#include "stats/normal.h"

namespace dpcopula::copula {

namespace {

constexpr std::size_t kNumDofs = kTDofGrid.size();

/// One column's pseudo-observations as codes into its distinct values, and
/// every quantile term a density needs, once per distinct value.
struct ColumnQuantiles {
  std::vector<std::uint32_t> code;  // Per row: index of the row's value.
  std::vector<double> z;            // Per distinct value c: Phi^{-1}(u).
  // [g * z.size() + c]: x = T^{-1}(u) at dof kTDofGrid[g], and the
  // univariate t density's term (dof + 1) / 2 * log1p(x^2 / dof).
  std::vector<double> x;
  std::vector<double> x_term;
};

Result<ColumnQuantiles> QuantilesOf(const std::vector<double>& u) {
  DPC_ASSIGN_OR_RETURN(stats::RankColumn rank, stats::BuildRankColumn(u));
  ColumnQuantiles q;
  const std::size_t d = rank.num_distinct;
  std::vector<double> distinct(d);
  for (const std::uint32_t row : rank.order) distinct[rank.rank[row]] = u[row];
  q.z.resize(d);
  for (std::size_t c = 0; c < d; ++c) {
    q.z[c] = stats::NormalInverseCdf(distinct[c]);
  }
  q.x.resize(kNumDofs * d);
  q.x_term.resize(kNumDofs * d);
  for (std::size_t g = 0; g < kNumDofs; ++g) {
    const double dof = kTDofGrid[g];
    for (std::size_t c = 0; c < d; ++c) {
      const double x = stats::StudentTInverseCdf(distinct[c], dof);
      q.x[g * d + c] = x;
      q.x_term[g * d + c] = (dof + 1.0) / 2.0 * std::log1p(x * x / dof);
    }
  }
  q.code = std::move(rank.rank);
  return q;
}

/// x^T P^{-1} x, or z^T (P^{-1} - I) z when `minus_identity`.
double QuadraticForm(const linalg::Matrix& precision,
                     const std::vector<double>& v, bool minus_identity) {
  const std::size_t m = v.size();
  double quad = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j) row += precision(i, j) * v[j];
    quad += v[i] * (minus_identity ? row - v[i] : row);
  }
  return quad;
}

}  // namespace

std::size_t FamilyLikelihoods::BestDof(std::size_t b) const {
  std::size_t best = 0;
  double best_ll = -1e300;
  for (std::size_t g = 0; g < kNumDofs; ++g) {
    const double ll = t[b * kNumDofs + g];
    if (ll > best_ll) {
      best_ll = ll;
      best = g;
    }
  }
  return best;
}

std::vector<double> FamilyLikelihoods::DofVotes() const {
  std::vector<double> votes(kNumDofs, 0.0);
  for (std::size_t b = 0; b < num_blocks(); ++b) votes[BestDof(b)] += 1.0;
  return votes;
}

std::vector<double> FamilyLikelihoods::FamilyVotes() const {
  const double m = static_cast<double>(dims);
  const double gaussian_params = m * (m - 1.0) / 2.0;
  const double t_params = m * (m - 1.0) / 2.0 + 1.0;  // + dof.
  std::vector<double> votes(2, 0.0);  // [gaussian, t].
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const double aic_t = 2.0 * t_params - 2.0 * t[b * kNumDofs + BestDof(b)];
    const double aic_g = 2.0 * gaussian_params - 2.0 * gaussian[b];
    votes[aic_t < aic_g ? 1 : 0] += 1.0;
  }
  return votes;
}

Result<FamilyLikelihoods> FamilyLikelihoodTable(
    const std::vector<std::vector<double>>& pseudo,
    const linalg::Matrix& correlation, std::size_t num_blocks) {
  if (num_blocks == 0 || pseudo.empty() ||
      pseudo[0].size() < num_blocks * 4) {
    return Status::InvalidArgument(
        "family vote: too few rows for the requested blocks");
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
  DPC_ASSIGN_OR_RETURN(const linalg::Matrix cholesky,
                       linalg::CholeskyDecompose(correlation));
  DPC_ASSIGN_OR_RETURN(const linalg::Matrix precision,
                       linalg::CholeskyInverse(cholesky));
  const double log_det = linalg::CholeskyLogDet(cholesky);
  const std::size_t m = correlation.rows();
  if (pseudo.size() != m) {
    return Status::InvalidArgument("family vote: dimension mismatch");
  }

  // The blocks cover rows [0, used); the rest are never read.
  const std::size_t n = pseudo[0].size();
  const std::size_t block = n / num_blocks;
  const std::size_t used = block * num_blocks;
  std::vector<ColumnQuantiles> cols;
  cols.reserve(m);
  for (const std::vector<double>& column : pseudo) {
    if (column.size() != n) {
      return Status::InvalidArgument("family vote: ragged pseudo columns");
    }
    for (std::size_t i = 0; i < used; ++i) {
      if (!(column[i] > 0.0 && column[i] < 1.0)) {
        return Status::OutOfRange("pseudo-observation outside (0, 1)");
      }
    }
    DPC_ASSIGN_OR_RETURN(
        ColumnQuantiles q,
        used == n ? QuantilesOf(column)
                  : QuantilesOf(std::vector<double>(
                        column.begin(),
                        column.begin() + static_cast<std::ptrdiff_t>(used))));
    cols.push_back(std::move(q));
  }

  // The t density's row-independent terms, one per grid dof. stats::LogGamma,
  // not std::lgamma: hybrid partitions run this concurrently, and lgamma
  // writes the signgam global.
  const double md = static_cast<double>(m);
  std::array<double, kNumDofs> t_const;
  for (std::size_t g = 0; g < kNumDofs; ++g) {
    const double dof = kTDofGrid[g];
    t_const[g] = stats::LogGamma((dof + md) / 2.0) +
                 (md - 1.0) * stats::LogGamma(dof / 2.0) -
                 md * stats::LogGamma((dof + 1.0) / 2.0) - 0.5 * log_det;
  }

  // One pass over the rows; each (block, family, dof) sum keeps its own
  // accumulator in row order.
  FamilyLikelihoods out;
  out.dims = m;
  out.gaussian.assign(num_blocks, 0.0);
  out.t.assign(num_blocks * kNumDofs, 0.0);
  std::vector<double> v(m);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    double* t_acc = out.t.data() + b * kNumDofs;
    for (std::size_t i = b * block; i < (b + 1) * block; ++i) {
      for (std::size_t j = 0; j < m; ++j) v[j] = cols[j].z[cols[j].code[i]];
      out.gaussian[b] +=
          -0.5 * log_det - 0.5 * QuadraticForm(precision, v, true);
      for (std::size_t g = 0; g < kNumDofs; ++g) {
        const double dof = kTDofGrid[g];
        for (std::size_t j = 0; j < m; ++j) {
          v[j] = cols[j].x[g * cols[j].z.size() + cols[j].code[i]];
        }
        double log_c = t_const[g];
        log_c -= (dof + md) / 2.0 *
                 std::log1p(QuadraticForm(precision, v, false) / dof);
        for (std::size_t j = 0; j < m; ++j) {
          log_c += cols[j].x_term[g * cols[j].z.size() + cols[j].code[i]];
        }
        t_acc[g] += log_c;
      }
    }
  }
  return out;
}

}  // namespace dpcopula::copula
