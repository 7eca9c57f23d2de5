#ifndef DPCOPULA_COPULA_PSEUDO_OBS_H_
#define DPCOPULA_COPULA_PSEUDO_OBS_H_

#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::copula {

/// Pseudo-copula observations (paper Eq. 2–3): each column of the input is
/// pushed through its empirical marginal CDF with the n+1 normalization, so
/// every output value lies strictly in (0, 1). Output is column-major:
/// result[j][i] = F_j_hat(X_ij).
Result<std::vector<std::vector<double>>> PseudoObservations(
    const data::Table& table);

/// Same transform but through externally supplied (e.g. differentially
/// private) marginal CDFs — one per column.
Result<std::vector<std::vector<double>>> PseudoObservationsWithCdfs(
    const data::Table& table, const std::vector<stats::EmpiricalCdf>& cdfs);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_PSEUDO_OBS_H_
