// Sequential scalar Algorithm 3: the sampling loop that predates the tiled
// kernel (copula/sampler.cc), kept as a test oracle. One RNG, rows in order,
// one Gaussian vector per row, a per-row triangular multiply and a
// std::lower_bound inversion per cell. It draws its randomness in a
// different order than the sharded, tiled production kernel, so the two
// agree in distribution rather than bit for bit.
#ifndef DPCOPULA_TESTS_REFERENCE_SAMPLER_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_SAMPLER_REFERENCE_H_

#include <cmath>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "stats/distributions.h"
#include "stats/empirical_cdf.h"
#include "stats/normal.h"

namespace dpcopula::reference {

/// Gaussian copula (dof == 0) or Student-t copula (dof > 0) rows drawn one
/// at a time from `rng`. Inputs are assumed valid: one CDF per attribute
/// and a positive-definite `correlation`.
inline Result<data::Table> SampleCopulaRows(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof, std::size_t num_rows,
    Rng* rng) {
  const std::size_t m = schema.num_attributes();
  DPC_ASSIGN_OR_RETURN(const linalg::Matrix chol,
                       linalg::CholeskyDecompose(correlation));
  data::Table out = data::Table::Zeros(schema, num_rows);
  std::vector<double> z(m);
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t j = 0; j < m; ++j) z[j] = rng->NextGaussian();
    // One chi-squared mixing variable per record gives the joint t.
    const double scale =
        dof > 0.0 ? std::sqrt(dof / stats::SampleChiSquared(rng, dof)) : 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += chol(i, k) * z[k];
      const double u = dof > 0.0 ? stats::StudentTCdf(acc * scale, dof)
                                 : stats::NormalCdf(acc);
      out.set(r, i, static_cast<double>(marginal_cdfs[i].InverseCdf(u)));
    }
  }
  return out;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_SAMPLER_REFERENCE_H_
