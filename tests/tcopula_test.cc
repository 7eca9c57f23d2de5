#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "copula/empirical_copula.h"
#include "copula/gaussian_copula.h"
#include "copula/pseudo_obs.h"
#include "copula/sampler.h"
#include "copula/t_copula.h"
#include "data/generator.h"
#include "stats/distributions.h"
#include "stats/kendall.h"

namespace dpcopula::copula {
namespace {

// Column-major pseudo-observations sampled from a t copula with the given
// correlation/dof.
std::vector<std::vector<double>> SampleTPseudo(const linalg::Matrix& corr,
                                               double dof, std::size_t n,
                                               Rng* rng) {
  auto c = TCopula::Create(corr, dof);
  std::vector<std::vector<double>> pseudo(corr.rows(),
                                          std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = c->SampleUniforms(rng);
    for (std::size_t j = 0; j < corr.rows(); ++j) pseudo[j][i] = u[j];
  }
  return pseudo;
}

TEST(StudentTInverseTest, RoundTrip) {
  for (double dof : {1.0, 3.0, 8.0, 30.0}) {
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
      const double x = stats::StudentTInverseCdf(p, dof);
      EXPECT_NEAR(stats::StudentTCdf(x, dof), p, 1e-10)
          << "dof=" << dof << " p=" << p;
    }
  }
}

TEST(StudentTInverseTest, KnownQuantiles) {
  // t(1) = Cauchy: Q(0.75) = 1.
  EXPECT_NEAR(stats::StudentTInverseCdf(0.75, 1.0), 1.0, 1e-9);
  // Large dof approaches the normal quantile.
  EXPECT_NEAR(stats::StudentTInverseCdf(0.975, 1e6), 1.96, 1e-2);
  EXPECT_DOUBLE_EQ(stats::StudentTInverseCdf(0.5, 5.0), 0.0);
  EXPECT_TRUE(std::isinf(stats::StudentTInverseCdf(1.0, 5.0)));
}

TEST(StudentTInverseTest, SmallDofExtremePStaysInBisectionBracket) {
  // Regression: for small dof and p near 1 the density is nearly flat, and
  // an unclamped Newton polish step could fly out of the bisection bracket
  // and return a point whose CDF is *farther* from p than the plain
  // bisection answer. The clamped polish must always end at least as close.
  for (const double dof : {0.3, 0.5, 1.0, 2.0}) {
    for (const double p : {0.999, 0.9999, 0.999999, 1.0 - 1e-9}) {
      const double x = stats::StudentTInverseCdf(p, dof);
      ASSERT_TRUE(std::isfinite(x)) << "dof=" << dof << " p=" << p;

      // Reproduce the bisection-only bracket the polish started from.
      double lo = 0.0, hi = 1.0;
      while (stats::StudentTCdf(hi, dof) < p && hi < 1e300) hi *= 2.0;
      for (int i = 0; i < 200 && hi - lo > 1e-14 * (1.0 + hi); ++i) {
        const double mid = 0.5 * (lo + hi);
        if (stats::StudentTCdf(mid, dof) < p) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      const double bisect = 0.5 * (lo + hi);
      const double err_polished = std::fabs(stats::StudentTCdf(x, dof) - p);
      const double err_bisect = std::fabs(stats::StudentTCdf(bisect, dof) - p);
      // Allow CDF-evaluation noise (~1e-15) but nothing like the orders-of-
      // magnitude escape the unclamped step produced.
      EXPECT_LE(err_polished, 2.0 * err_bisect + 1e-13)
          << "dof=" << dof << " p=" << p << " x=" << x
          << " bisect=" << bisect;
      // And the result must respect the monotone bracket.
      EXPECT_GE(x, lo);
      EXPECT_LE(x, hi);
    }
  }
}

TEST(StudentTPdfTest, IntegratesToCdf) {
  // Numeric check: pdf is the derivative of the CDF.
  const double dof = 5.0;
  for (double x : {-2.0, 0.0, 1.5}) {
    const double h = 1e-5;
    const double deriv =
        (stats::StudentTCdf(x + h, dof) - stats::StudentTCdf(x - h, dof)) /
        (2.0 * h);
    EXPECT_NEAR(stats::StudentTPdf(x, dof), deriv, 1e-6);
  }
}

TEST(ChiSquaredTest, MeanAndVariance) {
  Rng rng(1);
  const double dof = 7.0;
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = stats::SampleChiSquared(&rng, dof);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, dof, 0.1);
  EXPECT_NEAR(sum_sq / n - mean * mean, 2.0 * dof, 0.5);
}

TEST(TCopulaTest, CreateValidation) {
  EXPECT_FALSE(TCopula::Create(linalg::Matrix::Identity(2), 0.0).ok());
  linalg::Matrix bad = linalg::Matrix::FromRows({{2.0, 0.0}, {0.0, 1.0}});
  EXPECT_FALSE(TCopula::Create(bad, 4.0).ok());
  EXPECT_TRUE(TCopula::Create(linalg::Matrix::Identity(3), 4.0).ok());
}

TEST(TCopulaTest, DensityIntegratesToOneIn1D) {
  // A 1-dimensional copula is the uniform: log density must be ~0.
  auto c = TCopula::Create(linalg::Matrix::Identity(1), 4.0);
  ASSERT_TRUE(c.ok());
  for (double u : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(*c->LogDensity({u}), 0.0, 1e-9) << u;
  }
}

TEST(TCopulaTest, ConvergesToGaussianForLargeDof) {
  auto corr = data::Equicorrelation(2, 0.5);
  auto t_large = TCopula::Create(*corr, 1e5);
  auto gauss = GaussianCopula::Create(*corr);
  ASSERT_TRUE(t_large.ok());
  ASSERT_TRUE(gauss.ok());
  for (double u1 : {0.2, 0.5, 0.8}) {
    for (double u2 : {0.3, 0.7}) {
      EXPECT_NEAR(*t_large->LogDensity({u1, u2}),
                  *gauss->LogDensity({u1, u2}), 1e-2)
          << u1 << "," << u2;
    }
  }
}

TEST(TCopulaTest, SmallDofHasHeavierJointTails) {
  // Tail dependence: density at the joint extreme corner is higher for
  // small dof than for the Gaussian with the same correlation.
  auto corr = data::Equicorrelation(2, 0.5);
  auto t4 = TCopula::Create(*corr, 4.0);
  auto gauss = GaussianCopula::Create(*corr);
  const double corner_t = *t4->LogDensity({0.999, 0.999});
  const double corner_g = *gauss->LogDensity({0.999, 0.999});
  EXPECT_GT(corner_t, corner_g);
}

TEST(TCopulaTest, SampleUniformsHaveUniformMargins) {
  Rng rng(3);
  auto c = TCopula::Create(*data::Equicorrelation(2, 0.6), 4.0);
  ASSERT_TRUE(c.ok());
  double sum0 = 0.0, sum1 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto u = c->SampleUniforms(&rng);
    EXPECT_GT(u[0], 0.0);
    EXPECT_LT(u[0], 1.0);
    sum0 += u[0];
    sum1 += u[1];
  }
  EXPECT_NEAR(sum0 / n, 0.5, 0.01);
  EXPECT_NEAR(sum1 / n, 0.5, 0.01);
}

TEST(TCopulaTest, SampledKendallTauMatchesEllipticalRelation) {
  // tau = (2/pi) asin(rho) holds for every elliptical copula, including t.
  Rng rng(5);
  const double rho = 0.6;
  auto pseudo = SampleTPseudo(*data::Equicorrelation(2, rho), 4.0, 20000,
                              &rng);
  auto tau = stats::KendallTau(pseudo[0], pseudo[1]);
  ASSERT_TRUE(tau.ok());
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.02);
}

TEST(TCopulaTest, LogLikelihoodPrefersTrueDof) {
  Rng rng(7);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 4000, &rng);
  auto ll_true = TCopula::Create(*corr, 4.0)->LogLikelihood(pseudo);
  auto ll_far = TCopula::Create(*corr, 64.0)->LogLikelihood(pseudo);
  ASSERT_TRUE(ll_true.ok());
  ASSERT_TRUE(ll_far.ok());
  EXPECT_GT(*ll_true, *ll_far);
}

TEST(EstimateDofTest, RecoversTrueDofFromGrid) {
  Rng rng(9);
  auto corr = data::Equicorrelation(3, 0.4);
  auto pseudo = SampleTPseudo(*corr, 8.0, 5000, &rng);
  auto dof = EstimateTCopulaDof(pseudo, *corr);
  ASSERT_TRUE(dof.ok());
  EXPECT_GE(*dof, 4.0);
  EXPECT_LE(*dof, 16.0);
}

TEST(EstimateDofTest, GaussianDataPicksLargeDof) {
  Rng rng(11);
  auto corr = data::Equicorrelation(2, 0.5);
  auto g = GaussianCopula::Create(*corr);
  ASSERT_TRUE(g.ok());
  // Gaussian pseudo-observations: sample via the t copula at huge dof.
  auto pseudo = SampleTPseudo(*corr, 1e6, 5000, &rng);
  auto dof = EstimateTCopulaDof(pseudo, *corr);
  ASSERT_TRUE(dof.ok());
  EXPECT_GE(*dof, 32.0);
}

TEST(EstimateDofPrivateTest, HighBudgetMatchesNonPrivate) {
  Rng rng(13);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 8000, &rng);
  auto priv = EstimateTCopulaDofPrivate(pseudo, *corr, 50.0, &rng);
  ASSERT_TRUE(priv.ok());
  EXPECT_LE(*priv, 8.0);  // True dof 4; high budget should land close.
}

TEST(EstimateDofPrivateTest, RejectsTinyData) {
  Rng rng(15);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 20, &rng);
  EXPECT_FALSE(EstimateTCopulaDofPrivate(pseudo, *corr, 1.0, &rng).ok());
}

TEST(FamilySelectionTest, PrefersTOnTData) {
  Rng rng(17);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 3.0, 6000, &rng);
  auto better = TCopulaFitsBetter(pseudo, *corr);
  ASSERT_TRUE(better.ok());
  EXPECT_TRUE(*better);
}

TEST(FamilySelectionTest, PrefersGaussianOnGaussianData) {
  Rng rng(19);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 1e6, 6000, &rng);
  auto better = TCopulaFitsBetter(pseudo, *corr);
  ASSERT_TRUE(better.ok());
  EXPECT_FALSE(*better);
}

TEST(FamilySelectionTest, PrivateVoteHighBudgetAgreesOnTData) {
  Rng rng(21);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 3.0, 8000, &rng);
  auto better = TCopulaFitsBetterPrivate(pseudo, *corr, 50.0, &rng);
  ASSERT_TRUE(better.ok());
  EXPECT_TRUE(*better);
}

TEST(TSamplerTest, ProducesValidTableWithDependence) {
  Rng rng(23);
  data::Schema schema({{"a", 200}, {"b", 200}});
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.push_back(
      *stats::EmpiricalCdf::FromCounts(std::vector<double>(200, 1.0)));
  cdfs.push_back(
      *stats::EmpiricalCdf::FromCounts(std::vector<double>(200, 1.0)));
  const double rho = 0.7;
  auto plan = SamplingPlan::StudentT(schema, cdfs,
                                     *data::Equicorrelation(2, rho), 4.0);
  ASSERT_TRUE(plan.ok());
  auto out = plan->Sample(20000, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Validate().ok());
  auto tau = stats::KendallTau(out->column(0), out->column(1));
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.05);
}

TEST(TSamplerTest, ValidatesDof) {
  data::Schema schema({{"a", 10}});
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.push_back(
      *stats::EmpiricalCdf::FromCounts(std::vector<double>(10, 1.0)));
  // An infinite dof would make every chi-squared scale sqrt(inf / inf).
  for (const double dof : {-1.0, 0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const auto plan = SamplingPlan::StudentT(
        schema, cdfs, linalg::Matrix::Identity(1), dof);
    ASSERT_FALSE(plan.ok()) << "dof " << dof;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EmpiricalCopulaTest, FitValidation) {
  EXPECT_FALSE(EmpiricalCopula::Fit({}, 8).ok());
  EXPECT_FALSE(EmpiricalCopula::Fit({{0.5}}, 1).ok());
  // 10 dimensions at grid 16 = 16^10 cells: must refuse.
  std::vector<std::vector<double>> wide(10, std::vector<double>{0.5});
  EXPECT_EQ(EmpiricalCopula::Fit(wide, 16).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(EmpiricalCopula::Fit({{0.5, 1.5}}, 8).ok());  // u outside.
}

TEST(EmpiricalCopulaTest, IndependenceDataGivesFlatDensity) {
  Rng rng(31);
  std::vector<std::vector<double>> pseudo(2, std::vector<double>(20000));
  for (std::size_t i = 0; i < 20000; ++i) {
    pseudo[0][i] = rng.NextDoubleOpen();
    pseudo[1][i] = rng.NextDoubleOpen();
  }
  auto c = EmpiricalCopula::Fit(pseudo, 8);
  ASSERT_TRUE(c.ok());
  for (double u1 : {0.1, 0.5, 0.9}) {
    for (double u2 : {0.2, 0.8}) {
      EXPECT_NEAR(*c->Density({u1, u2}), 1.0, 0.25) << u1 << "," << u2;
    }
  }
}

TEST(EmpiricalCopulaTest, CapturesAsymmetricDependence) {
  // Dependence no elliptical copula expresses: strong coupling only in the
  // lower-left corner (u1, u2 both small), independence elsewhere.
  Rng rng(37);
  std::vector<std::vector<double>> pseudo(2);
  for (int i = 0; i < 30000; ++i) {
    double u1 = rng.NextDoubleOpen();
    double u2 = (u1 < 0.25) ? std::min(0.999, u1 + 0.01 * rng.NextDouble())
                            : rng.NextDoubleOpen();
    pseudo[0].push_back(u1);
    pseudo[1].push_back(u2);
  }
  auto c = EmpiricalCopula::Fit(pseudo, 8);
  ASSERT_TRUE(c.ok());
  // The diagonal lower-left cell is dense; the off-diagonal lower-left is
  // nearly empty.
  EXPECT_GT(*c->Density({0.05, 0.05}), 3.0);
  EXPECT_LT(*c->Density({0.05, 0.9}), 0.5);
}

TEST(EmpiricalCopulaTest, SamplingReproducesCellMass) {
  Rng rng(41);
  std::vector<std::vector<double>> pseudo(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDoubleOpen();
    pseudo[0].push_back(u);
    // Perfect positive dependence.
    pseudo[1].push_back(u);
  }
  auto c = EmpiricalCopula::Fit(pseudo, 4);
  ASSERT_TRUE(c.ok());
  // Sampled points should stay near the diagonal at the cell resolution.
  int on_diagonal = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto u = c->SampleUniforms(&rng);
    const int c1 = static_cast<int>(u[0] * 4.0);
    const int c2 = static_cast<int>(u[1] * 4.0);
    if (c1 == c2) ++on_diagonal;
  }
  EXPECT_GT(on_diagonal, n * 9 / 10);
}

TEST(EmpiricalCopulaTest, DpFitStillCloseAtHighBudget) {
  Rng rng(43);
  std::vector<std::vector<double>> pseudo(2);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDoubleOpen();
    pseudo[0].push_back(u);
    pseudo[1].push_back(std::min(0.999, std::max(0.001,
        u + 0.1 * rng.NextGaussian())));
  }
  auto exact = EmpiricalCopula::Fit(pseudo, 8);
  auto priv = EmpiricalCopula::FitDp(pseudo, 8, 50.0, &rng);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(priv.ok());
  for (double u1 : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(*priv->CellProbability({u1, u1}),
                *exact->CellProbability({u1, u1}), 0.01);
  }
}

TEST(EmpiricalCopulaTest, DpFitValidatesEpsilon) {
  Rng rng(47);
  std::vector<std::vector<double>> pseudo(1, std::vector<double>{0.5, 0.6});
  EXPECT_FALSE(EmpiricalCopula::FitDp(pseudo, 4, 0.0, &rng).ok());
}

class TCopulaAicSweep : public ::testing::TestWithParam<double> {};

TEST_P(TCopulaAicSweep, AicFiniteAcrossDofGrid) {
  Rng rng(27);
  auto corr = data::Equicorrelation(2, 0.4);
  auto pseudo = SampleTPseudo(*corr, 8.0, 1000, &rng);
  auto c = TCopula::Create(*corr, GetParam());
  ASSERT_TRUE(c.ok());
  auto aic = c->Aic(pseudo);
  ASSERT_TRUE(aic.ok());
  EXPECT_TRUE(std::isfinite(*aic));
}

INSTANTIATE_TEST_SUITE_P(DofGrid, TCopulaAicSweep,
                         ::testing::Values(2.0, 4.0, 8.0, 16.0, 32.0, 64.0));

}  // namespace
}  // namespace dpcopula::copula
