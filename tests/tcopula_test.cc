#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.h"
#include "copula/empirical_copula.h"
#include "copula/family_vote.h"
#include "copula/pseudo_obs.h"
#include "copula/sampler.h"
#include "data/census.h"
#include "data/generator.h"
#include "dp/mechanisms.h"
#include "linalg/cholesky.h"
#include "reference/tcopula_reference.h"
#include "stats/distributions.h"
#include "stats/kendall.h"
#include "stats/normal.h"

namespace dpcopula::copula {
namespace {

constexpr std::size_t kNumDofs = kTDofGrid.size();

// Column-major pseudo-observations sampled from a t copula with the given
// correlation/dof.
std::vector<std::vector<double>> SampleTPseudo(const linalg::Matrix& corr,
                                               double dof, std::size_t n,
                                               Rng* rng) {
  auto c = reference::TCopula::Create(corr, dof);
  std::vector<std::vector<double>> pseudo(corr.rows(),
                                          std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = c->SampleUniforms(rng);
    for (std::size_t j = 0; j < corr.rows(); ++j) pseudo[j][i] = u[j];
  }
  return pseudo;
}

// Gaussian-copula uniforms: u = Phi(L z) for z ~ N(0, I).
std::vector<std::vector<double>> SampleGaussianPseudo(
    const linalg::Matrix& corr, std::size_t n, Rng* rng) {
  const linalg::Matrix chol = *linalg::CholeskyDecompose(corr);
  const std::size_t m = corr.rows();
  std::vector<std::vector<double>> pseudo(m, std::vector<double>(n));
  std::vector<double> z(m);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : z) v = rng->NextGaussian();
    for (std::size_t a = 0; a < m; ++a) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= a; ++k) acc += chol(a, k) * z[k];
      pseudo[a][i] = stats::NormalCdf(acc);
    }
  }
  return pseudo;
}

// `rows` copies of one point, column-major.
std::vector<std::vector<double>> Repeat(const std::vector<double>& u,
                                        std::size_t rows) {
  std::vector<std::vector<double>> pseudo;
  for (const double v : u) pseudo.emplace_back(rows, v);
  return pseudo;
}

std::size_t GridIndex(double dof) {
  for (std::size_t g = 0; g < kNumDofs; ++g) {
    if (kTDofGrid[g] == dof) return g;
  }
  return kNumDofs;
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

// The table against the row-at-a-time oracle: every block's Gaussian and
// t log-likelihoods are the oracle's per-chunk sums bit for bit, and both
// vote vectors are the oracle's. 437 rows in 10 blocks leaves the last 7
// rows out of every vote.
TEST(FamilyTableTest, MatchesOracleBitwise) {
  constexpr std::size_t kRows = 437;
  constexpr std::size_t kBlocks = 10;
  Rng census_rng(101);
  const data::Table census = *data::GenerateBrazilCensus(kRows, &census_rng);
  const auto census_pseudo = *PseudoObservations(census);
  for (const std::size_t m : {2, 3, 5}) {
    Rng rng(103 + m);
    const linalg::Matrix equi = *data::Equicorrelation(m, 0.4);
    struct Case {
      const char* name;
      std::vector<std::vector<double>> pseudo;
      linalg::Matrix corr;
    };
    std::vector<Case> cases;
    cases.push_back({"t4", SampleTPseudo(equi, 4.0, kRows, &rng), equi});
    cases.push_back({"t8", SampleTPseudo(equi, 8.0, kRows, &rng), equi});
    cases.push_back(
        {"gaussian", SampleGaussianPseudo(equi, kRows, &rng), equi});
    // The first m of age, gender, disability, nativity and years: up to
    // three binary columns, so heavy ties.
    cases.push_back(
        {"census",
         std::vector<std::vector<double>>(
             census_pseudo.begin(),
             census_pseudo.begin() + static_cast<std::ptrdiff_t>(m)),
         data::Ar1Correlation(m, 0.5)});
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " m=" + std::to_string(m));
      const auto table = FamilyLikelihoodTable(c.pseudo, c.corr, kBlocks);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(table->num_blocks(), kBlocks);
      const auto gaussian = reference::GaussianCopula::Create(c.corr);
      ASSERT_TRUE(gaussian.ok());
      const auto chunks = reference::SplitPseudo(c.pseudo, kBlocks);
      for (std::size_t b = 0; b < kBlocks; ++b) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(table->gaussian[b]),
                  std::bit_cast<std::uint64_t>(
                      *gaussian->LogLikelihood(chunks[b])))
            << "block " << b;
        for (std::size_t g = 0; g < kNumDofs; ++g) {
          const auto t = reference::TCopula::Create(c.corr, kTDofGrid[g]);
          ASSERT_TRUE(t.ok());
          EXPECT_EQ(std::bit_cast<std::uint64_t>(table->t[b * kNumDofs + g]),
                    std::bit_cast<std::uint64_t>(*t->LogLikelihood(chunks[b])))
              << "block " << b << " dof " << kTDofGrid[g];
        }
      }
      EXPECT_EQ(table->DofVotes(),
                *reference::DofVotes(c.pseudo, c.corr, kBlocks));
      EXPECT_EQ(table->FamilyVotes(),
                *reference::FamilyVotes(c.pseudo, c.corr, kBlocks));
    }
  }
}

// Whatever the oracle refuses, the table refuses with the same code; a bad
// value in the rows no block reads passes both.
TEST(FamilyTableTest, ValidatesLikeTheOracle) {
  const std::vector<std::vector<double>> ok(2, std::vector<double>(43, 0.5));
  const linalg::Matrix identity = linalg::Matrix::Identity(2);
  auto with_cell = [&](std::size_t row, double v) {
    auto pseudo = ok;
    pseudo[1][row] = v;
    return pseudo;
  };
  struct Case {
    const char* name;
    std::vector<std::vector<double>> pseudo;
    linalg::Matrix corr;
  };
  const std::vector<Case> cases = {
      {"too few rows", {std::vector<double>(39, 0.5),
                        std::vector<double>(39, 0.5)}, identity},
      {"no columns", {}, identity},
      {"not square", ok, linalg::Matrix(2, 3)},
      {"empty correlation", ok, linalg::Matrix()},
      {"diagonal 2", ok, linalg::Matrix::FromRows({{2.0, 0.0}, {0.0, 1.0}})},
      {"indefinite", ok, linalg::Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}})},
      {"three columns", ok, linalg::Matrix::Identity(3)},
      {"u = 0", with_cell(5, 0.0), identity},
      {"u = 1", with_cell(39, 1.0), identity},
      {"u = nan", with_cell(0, std::nan("")), identity},
      {"u = 1 in a left-out row", with_cell(41, 1.0), identity},
      {"valid", ok, identity},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(1);
    const auto oracle =
        reference::EstimateTCopulaDofPrivate(c.pseudo, c.corr, 1.0, &rng);
    const auto table = FamilyLikelihoodTable(c.pseudo, c.corr, 10);
    EXPECT_EQ(table.status().code(), oracle.status().code())
        << table.status().ToString() << " vs " << oracle.status().ToString();
  }
  EXPECT_EQ(FamilyLikelihoodTable(ok, identity, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// A 1-dimensional copula is the uniform: every log density is ~0.
TEST(TCopulaTest, DensityIntegratesToOneIn1D) {
  for (double u : {0.1, 0.5, 0.9}) {
    auto table =
        FamilyLikelihoodTable(Repeat({u}, 4), linalg::Matrix::Identity(1), 1);
    ASSERT_TRUE(table.ok());
    EXPECT_NEAR(table->gaussian[0], 0.0, 4e-9) << u;
    for (std::size_t g = 0; g < kNumDofs; ++g) {
      EXPECT_NEAR(table->t[g], 0.0, 4e-9) << u << " dof " << kTDofGrid[g];
    }
  }
}

TEST(TCopulaTest, ConvergesToGaussianAsDofGrows) {
  auto corr = data::Equicorrelation(2, 0.5);
  for (double u1 : {0.2, 0.5, 0.8}) {
    for (double u2 : {0.3, 0.7}) {
      auto table = FamilyLikelihoodTable(Repeat({u1, u2}, 4), *corr, 1);
      ASSERT_TRUE(table.ok());
      const double gap2 = std::fabs(table->t[0] - table->gaussian[0]);
      const double gap64 =
          std::fabs(table->t[kNumDofs - 1] - table->gaussian[0]);
      EXPECT_LT(gap64, gap2) << u1 << "," << u2;
      EXPECT_LT(gap64, 4 * 0.02) << u1 << "," << u2;
    }
  }
}

TEST(TCopulaTest, SmallDofHasHeavierJointTails) {
  // Tail dependence: density at the joint extreme corner is higher for
  // small dof than for the Gaussian with the same correlation.
  auto table = FamilyLikelihoodTable(Repeat({0.999, 0.999}, 4),
                                     *data::Equicorrelation(2, 0.5), 1);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->t[GridIndex(4.0)], table->gaussian[0]);
}

TEST(TCopulaTest, LogLikelihoodPrefersTrueDof) {
  Rng rng(7);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 4000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->t[GridIndex(4.0)], table->t[GridIndex(64.0)]);
}

TEST(EstimateDofTest, RecoversTrueDofFromGrid) {
  Rng rng(9);
  auto corr = data::Equicorrelation(3, 0.4);
  auto pseudo = SampleTPseudo(*corr, 8.0, 5000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  const double dof = kTDofGrid[table->BestDof(0)];
  EXPECT_GE(dof, 4.0);
  EXPECT_LE(dof, 16.0);
}

TEST(EstimateDofTest, GaussianDataPicksLargeDof) {
  Rng rng(11);
  auto corr = data::Equicorrelation(2, 0.5);
  // Gaussian pseudo-observations: sample via the t copula at huge dof.
  auto pseudo = SampleTPseudo(*corr, 1e6, 5000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  EXPECT_GE(kTDofGrid[table->BestDof(0)], 32.0);
}

TEST(EstimateDofPrivateTest, HighBudgetMatchesNonPrivate) {
  Rng rng(13);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 8000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 10);
  ASSERT_TRUE(table.ok());
  auto pick = dp::ExponentialMechanism(&rng, table->DofVotes(), 50.0, 1.0);
  ASSERT_TRUE(pick.ok());
  EXPECT_LE(kTDofGrid[*pick], 8.0);  // True dof 4; high budget lands close.
}

TEST(EstimateDofPrivateTest, RejectsTinyData) {
  Rng rng(15);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 4.0, 20, &rng);
  EXPECT_FALSE(FamilyLikelihoodTable(pseudo, *corr, 10).ok());
}

TEST(FamilySelectionTest, PrefersTOnTData) {
  Rng rng(17);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 3.0, 6000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FamilyVotes(), (std::vector<double>{0.0, 1.0}));
}

TEST(FamilySelectionTest, PrefersGaussianOnGaussianData) {
  Rng rng(19);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 1e6, 6000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FamilyVotes(), (std::vector<double>{1.0, 0.0}));
}

TEST(FamilySelectionTest, PrivateVoteHighBudgetAgreesOnTData) {
  Rng rng(21);
  auto corr = data::Equicorrelation(2, 0.5);
  auto pseudo = SampleTPseudo(*corr, 3.0, 8000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 10);
  ASSERT_TRUE(table.ok());
  auto pick = dp::ExponentialMechanism(&rng, table->FamilyVotes(), 50.0, 1.0);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);
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

class TCopulaAicSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TCopulaAicSweep, AicFiniteAcrossDofGrid) {
  Rng rng(27);
  auto corr = data::Equicorrelation(2, 0.4);
  auto pseudo = SampleTPseudo(*corr, 8.0, 1000, &rng);
  auto table = FamilyLikelihoodTable(pseudo, *corr, 1);
  ASSERT_TRUE(table.ok());
  const double ll = table->t[GetParam()];
  EXPECT_TRUE(std::isfinite(2.0 * 2.0 - 2.0 * ll));  // C(2,2) + dof.
}

INSTANTIATE_TEST_SUITE_P(DofGrid, TCopulaAicSweep,
                         ::testing::Range<std::size_t>(0, kNumDofs));

}  // namespace
}  // namespace dpcopula::copula
