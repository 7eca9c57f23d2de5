// Test oracles for the DP MLE estimator (copula/mle_estimator.cc).
//
// NormalScores and NormalScoresCorrelation are the column-vector normal
// scores and sample correlation of the per-partition pseudo-MLE, one pass
// per column pair. EstimateMleCorrelation is Algorithm 2 over them: every
// partition is copied into its own Table, pushed through
// PseudoObservations (a domain-sized histogram per column), NormalScores
// and NormalScoresCorrelation, then the survivors are averaged in partition
// order, noised, clamped and repaired exactly as the production estimator
// does. The released matrices agree bit for bit. Sequential; the only fail
// point kept is `mle.partition_fit`, at the same partition index, so
// survivor averaging can be compared under injected faults. No logs or
// metrics.
#ifndef DPCOPULA_TESTS_REFERENCE_MLE_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_MLE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/result.h"
#include "common/rng.h"
#include "copula/mle_estimator.h"
#include "copula/pseudo_obs.h"
#include "data/table.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/psd_repair.h"
#include "stats/distributions.h"
#include "stats/normal.h"

namespace dpcopula::reference {

/// Normal scores: z[j][i] = Phi^{-1}(u[j][i]) for pseudo-observations u.
inline std::vector<std::vector<double>> NormalScores(
    const std::vector<std::vector<double>>& pseudo) {
  std::vector<std::vector<double>> z(pseudo.size());
  for (std::size_t j = 0; j < pseudo.size(); ++j) {
    z[j].resize(pseudo[j].size());
    for (std::size_t i = 0; i < pseudo[j].size(); ++i) {
      z[j][i] = stats::NormalInverseCdf(pseudo[j][i]);
    }
  }
  return z;
}

/// Sample correlation matrix of the score columns `scores[j]`, which must
/// share a common length of at least 2.
inline Result<linalg::Matrix> NormalScoresCorrelation(
    const std::vector<std::vector<double>>& scores) {
  const std::size_t m = scores.size();
  if (m == 0) return Status::InvalidArgument("no score columns");
  const std::size_t n = scores[0].size();
  if (n < 2) return Status::InvalidArgument("need >= 2 rows");
  for (const auto& col : scores) {
    if (col.size() != n) {
      return Status::InvalidArgument("ragged score columns");
    }
  }

  // Column means and centered second moments.
  std::vector<double> mean(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    for (double v : scores[j]) mean[j] += v;
    mean[j] /= static_cast<double>(n);
  }
  linalg::Matrix cov(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += (scores[a][i] - mean[a]) * (scores[b][i] - mean[b]);
      }
      cov(a, b) = acc;
      cov(b, a) = acc;
    }
  }
  // Normalize to a correlation matrix.
  linalg::Matrix corr(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      const double denom = std::sqrt(cov(a, a) * cov(b, b));
      corr(a, b) = (denom > 0.0) ? cov(a, b) / denom : (a == b ? 1.0 : 0.0);
    }
    corr(a, a) = 1.0;
  }
  return corr;
}

inline Result<copula::MleEstimate> EstimateMleCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::MleEstimatorOptions& options = {}) {
  const std::size_t m = table.num_columns();
  const auto n = static_cast<std::int64_t>(table.num_rows());
  if (m < 2) {
    return Status::InvalidArgument("MLE estimator needs >= 2 columns");
  }
  if (!(epsilon2 > 0.0)) {
    return Status::InvalidArgument("epsilon2 must be > 0");
  }
  std::int64_t l = options.num_partitions;
  if (l <= 0) {
    l = copula::PaperMlePartitionCount(m, epsilon2);
    const std::int64_t max_l =
        std::max<std::int64_t>(1, n / std::max<std::int64_t>(
                                          2, copula::kMleMinPartitionRows));
    l = std::clamp<std::int64_t>(l, 1, max_l);
  }
  const std::int64_t b = n / l;  // Rows per partition; remainder dropped.
  if (b < 2) {
    return Status::InvalidArgument(
        "MLE estimator: fewer than 2 rows per partition (n=" +
        std::to_string(n) + ", l=" + std::to_string(l) + ")");
  }

  // Fits partition t: rows [t*b, (t+1)*b) copied into their own Table.
  const auto fit_partition = [&](std::int64_t t) -> Result<linalg::Matrix> {
    if (DPC_FAILPOINT_AT("mle.partition_fit", static_cast<std::size_t>(t))) {
      return failpoint::InjectedFault("mle.partition_fit");
    }
    data::Table part =
        data::Table::Zeros(table.schema(), static_cast<std::size_t>(b));
    for (std::size_t j = 0; j < m; ++j) {
      const auto& col = table.column(j);
      auto& dst = part.mutable_column(j);
      for (std::int64_t i = 0; i < b; ++i) {
        dst[static_cast<std::size_t>(i)] =
            col[static_cast<std::size_t>(t * b + i)];
      }
    }
    DPC_ASSIGN_OR_RETURN(const auto pseudo, copula::PseudoObservations(part));
    return NormalScoresCorrelation(NormalScores(pseudo));
  };

  // Sum the survivors in partition order; fail closed past the failure
  // allowance with the first failing partition's status.
  linalg::Matrix avg(m, m);
  std::int64_t survivors = 0;
  std::int64_t failed = 0;
  Status first_failure = Status::OK();
  for (std::int64_t t = 0; t < l; ++t) {
    const Result<linalg::Matrix> fit = fit_partition(t);
    if (!fit.ok()) {
      ++failed;
      if (first_failure.ok()) first_failure = fit.status();
      continue;
    }
    avg.AddInPlace(*fit);
    ++survivors;
  }
  if (survivors == 0 || failed > options.max_failed_partitions) {
    return first_failure;
  }
  const double inv_survivors = 1.0 / static_cast<double>(survivors);

  // Laplace scale C(m,2) * Lambda / (l_s * epsilon2) with Lambda = 2.
  const double num_pairs = static_cast<double>(m) * (m - 1) / 2.0;
  const double scale =
      num_pairs * 2.0 / (static_cast<double>(survivors) * epsilon2);
  linalg::Matrix p = linalg::Matrix::Identity(m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      double noisy =
          avg(j, k) * inv_survivors + stats::SampleLaplace(rng, scale);
      noisy = std::clamp(noisy, -1.0, 1.0);
      p(j, k) = p(k, j) = noisy;
    }
  }

  copula::MleEstimate est;
  est.num_partitions = l;
  est.rows_per_partition = b;
  est.rows_dropped = n - b * l;
  est.failed_partitions = failed;
  est.laplace_scale = scale;
  est.repaired = !linalg::IsPositiveDefinite(p);
  linalg::PsdRepairOptions repair_options;
  repair_options.num_threads = options.num_threads;
  DPC_ASSIGN_OR_RETURN(est.correlation,
                       linalg::EnsureCorrelationMatrix(p, repair_options));
  return est;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_MLE_REFERENCE_H_
