#include "query/fidelity_metrics.h"

#include <cmath>
#include <utility>
#include <vector>

#include "stats/kendall.h"

namespace dpcopula::query {

Result<double> MarginalTotalVariation(const data::Table& original,
                                      const data::Table& synthetic,
                                      std::size_t col) {
  if (!(original.schema() == synthetic.schema())) {
    return Status::InvalidArgument("fidelity: schema mismatch");
  }
  if (col >= original.num_columns()) {
    return Status::OutOfRange("fidelity: column out of range");
  }
  if (original.num_rows() == 0 || synthetic.num_rows() == 0) {
    return Status::InvalidArgument("fidelity: empty table");
  }
  const auto domain = static_cast<std::size_t>(
      original.schema().attribute(col).domain_size);
  std::vector<double> po(domain, 0.0), ps(domain, 0.0);
  for (double v : original.column(col)) po[static_cast<std::size_t>(v)] += 1.0;
  for (double v : synthetic.column(col)) {
    ps[static_cast<std::size_t>(v)] += 1.0;
  }
  const double no = static_cast<double>(original.num_rows());
  const double ns = static_cast<double>(synthetic.num_rows());
  double tv = 0.0;
  for (std::size_t v = 0; v < domain; ++v) {
    tv += std::fabs(po[v] / no - ps[v] / ns);
  }
  return 0.5 * tv;
}

Result<double> MeanMarginalTotalVariation(const data::Table& original,
                                          const data::Table& synthetic) {
  double total = 0.0;
  for (std::size_t j = 0; j < original.num_columns(); ++j) {
    DPC_ASSIGN_OR_RETURN(double tv,
                         MarginalTotalVariation(original, synthetic, j));
    total += tv;
  }
  return total / static_cast<double>(original.num_columns());
}

Result<linalg::Matrix> KendallMatrix(const data::Table& table) {
  const std::size_t m = table.num_columns();
  if (m == 0) return Status::InvalidArgument("fidelity: no columns");
  linalg::Matrix tau(m, m);
  for (std::size_t j = 0; j < m; ++j) tau(j, j) = 1.0;
  if (m == 1) return tau;  // No pair to rank.
  // stats::KendallTau's checks, in its order, ahead of the rank builds.
  if (table.num_rows() < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  // One rank structure per column, shared by every pair touching it.
  std::vector<stats::RankColumn> ranks;
  ranks.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    DPC_ASSIGN_OR_RETURN(stats::RankColumn rank,
                         stats::BuildRankColumn(table.column(j)));
    ranks.push_back(std::move(rank));
  }
  stats::TauWorkspace ws;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      DPC_ASSIGN_OR_RETURN(double t,
                           stats::KendallTauFromRanks(ranks[j], ranks[k], &ws));
      tau(j, k) = t;
      tau(k, j) = t;
    }
  }
  return tau;
}

Result<double> DependenceDistance(const data::Table& original,
                                  const data::Table& synthetic) {
  if (!(original.schema() == synthetic.schema())) {
    return Status::InvalidArgument("fidelity: schema mismatch");
  }
  if (original.num_columns() < 2) return 0.0;
  DPC_ASSIGN_OR_RETURN(linalg::Matrix to, KendallMatrix(original));
  DPC_ASSIGN_OR_RETURN(linalg::Matrix ts, KendallMatrix(synthetic));
  return to.MaxAbsDiff(ts);
}

Result<FidelityReport> EvaluateFidelity(const data::Table& original,
                                        const data::Table& synthetic) {
  FidelityReport report;
  for (std::size_t j = 0; j < original.num_columns(); ++j) {
    DPC_ASSIGN_OR_RETURN(double tv,
                         MarginalTotalVariation(original, synthetic, j));
    report.marginal_tv.push_back(tv);
    report.mean_marginal_tv += tv;
  }
  report.mean_marginal_tv /=
      static_cast<double>(original.num_columns());
  DPC_ASSIGN_OR_RETURN(report.dependence_distance,
                       DependenceDistance(original, synthetic));
  return report;
}

}  // namespace dpcopula::query
