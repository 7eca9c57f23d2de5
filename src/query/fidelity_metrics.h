#ifndef DPCOPULA_QUERY_FIDELITY_METRICS_H_
#define DPCOPULA_QUERY_FIDELITY_METRICS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "linalg/matrix.h"

namespace dpcopula::query {

/// Statistical-fidelity metrics for synthetic data: how closely the release
/// matches the original's margins and dependence structure. These are the
/// standard "quality report" numbers synthetic-data tooling publishes next
/// to the workload-accuracy metrics in evaluator.h.

/// Total variation distance between the empirical margins of column `col`:
/// 0 = identical distributions, 1 = disjoint supports.
Result<double> MarginalTotalVariation(const data::Table& original,
                                      const data::Table& synthetic,
                                      std::size_t col);

/// Mean marginal TV distance across all columns.
Result<double> MeanMarginalTotalVariation(const data::Table& original,
                                          const data::Table& synthetic);

/// Pairwise Kendall-tau matrix of a table (diagonal 1). Ranks each column
/// once in O(n log n); each pair then runs stats::KendallTauFromRanks.
Result<linalg::Matrix> KendallMatrix(const data::Table& table);

/// Max |tau_orig(j,k) - tau_synth(j,k)| over all attribute pairs — how much
/// of the dependence structure survived the release.
Result<double> DependenceDistance(const data::Table& original,
                                  const data::Table& synthetic);

/// Full report combining the above.
struct FidelityReport {
  std::vector<double> marginal_tv;  // Per column.
  double mean_marginal_tv = 0.0;
  double dependence_distance = 0.0;
};

Result<FidelityReport> EvaluateFidelity(const data::Table& original,
                                        const data::Table& synthetic);

}  // namespace dpcopula::query

#endif  // DPCOPULA_QUERY_FIDELITY_METRICS_H_
