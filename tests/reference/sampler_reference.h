// Sequential scalar Algorithm 3: the sampling loop that predates the tiled
// kernel (copula/sampler.cc), kept as a test oracle. One RNG, rows in order,
// one Gaussian vector per row, a per-row triangular multiply and a
// std::lower_bound inversion per cell. Its normal deviates come from the
// Marsaglia polar method over the RNG's uniforms, not from Rng's ziggurat,
// so a defect in the production Gaussian source cannot hide in both sides.
// It draws its randomness in a different order than the sharded, tiled
// production kernel, so the two agree in distribution rather than bit for
// bit.
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

/// Standard normal deviates by the Marsaglia polar method over `rng`'s
/// uniforms: each accepted point yields two deviates, and the second is
/// cached for the next call.
class PolarGaussian {
 public:
  explicit PolarGaussian(Rng* rng) : rng_(rng) {}

  double Next() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u, v, s;
    do {
      u = 2.0 * rng_->NextDouble() - 1.0;
      v = 2.0 * rng_->NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_gaussian_ = v * factor;
    has_cached_gaussian_ = true;
    return u * factor;
  }

  Rng* rng() const { return rng_; }

 private:
  Rng* rng_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Chi-squared(dof) as 2 * Gamma(dof / 2): stats::SampleGamma's
/// Marsaglia–Tsang squeeze (with its shape < 1 boost), drawing its normals
/// from `gauss` and its uniforms from the same RNG.
inline double SampleChiSquaredPolar(PolarGaussian* gauss, double dof) {
  Rng* rng = gauss->rng();
  double shape = dof / 2.0;
  double boost = 1.0;
  if (shape < 1.0) {
    // Gamma(a) = Gamma(a+1) * U^{1/a}.
    boost = std::pow(rng->NextDoubleOpen(), 1.0 / shape);
    shape += 1.0;
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = gauss->Next();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng->NextDoubleOpen();
    if (u < 1.0 - 0.0331 * x * x * x * x ||
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return 2.0 * (d * v * boost);
    }
  }
}

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
  PolarGaussian gauss(rng);
  std::vector<double> z(m);
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t j = 0; j < m; ++j) z[j] = gauss.Next();
    // One chi-squared mixing variable per record gives the joint t.
    const double scale =
        dof > 0.0 ? std::sqrt(dof / SampleChiSquaredPolar(&gauss, dof)) : 1.0;
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
