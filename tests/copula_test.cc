#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "copula/family_vote.h"
#include "copula/gaussian_copula.h"
#include "copula/kendall_estimator.h"
#include "copula/mle_estimator.h"
#include "copula/pseudo_obs.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "linalg/cholesky.h"
#include "reference/mle_reference.h"
#include "stats/kendall.h"

namespace dpcopula::copula {
namespace {

data::Table CorrelatedTable(std::size_t n, double rho, Rng* rng,
                            std::int64_t domain = 1000) {
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("x", domain),
      data::MarginSpec::Gaussian("y", domain)};
  auto corr = data::Equicorrelation(2, rho);
  auto t = data::GenerateGaussianDependent(specs, *corr, n, rng);
  return *t;
}

TEST(PseudoObsTest, ValuesStrictlyInsideUnitInterval) {
  Rng rng(71);
  data::Table t = CorrelatedTable(500, 0.5, &rng);
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  ASSERT_EQ(pseudo->size(), 2u);
  for (const auto& col : *pseudo) {
    ASSERT_EQ(col.size(), 500u);
    for (double u : col) {
      EXPECT_GT(u, 0.0);
      EXPECT_LT(u, 1.0);
    }
  }
}

TEST(PseudoObsTest, MonotoneInValue) {
  data::Table t(data::Schema({{"a", 10}}));
  ASSERT_TRUE(t.AppendRow({0}).ok());
  ASSERT_TRUE(t.AppendRow({5}).ok());
  ASSERT_TRUE(t.AppendRow({9}).ok());
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  EXPECT_LT((*pseudo)[0][0], (*pseudo)[0][1]);
  EXPECT_LT((*pseudo)[0][1], (*pseudo)[0][2]);
}

TEST(PseudoObsTest, NormalScoresFinite) {
  Rng rng(73);
  data::Table t = CorrelatedTable(200, 0.3, &rng);
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  const auto scores = reference::NormalScores(*pseudo);
  for (const auto& col : scores) {
    for (double z : col) EXPECT_TRUE(std::isfinite(z));
  }
}

// `rows` copies of one point, column-major.
std::vector<std::vector<double>> Repeat(const std::vector<double>& u,
                                        std::size_t rows) {
  std::vector<std::vector<double>> pseudo;
  for (const double v : u) pseudo.emplace_back(rows, v);
  return pseudo;
}

// The Gaussian log-likelihood of all of `pseudo` as one vote block.
double GaussianLogLikelihood(const std::vector<std::vector<double>>& pseudo,
                             const linalg::Matrix& corr) {
  return FamilyLikelihoodTable(pseudo, corr, 1)->gaussian[0];
}

TEST(GaussianCopulaTest, IdentityCorrelationHasUnitDensity) {
  auto table = FamilyLikelihoodTable(Repeat({0.3, 0.5, 0.9}, 4),
                                     linalg::Matrix::Identity(3), 1);
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table->gaussian[0], 0.0, 4e-12);  // c_I(u) == 1 everywhere.
}

TEST(GaussianCopulaTest, RejectsNonCorrelationInput) {
  const auto pseudo = Repeat({0.3, 0.6}, 4);
  linalg::Matrix bad = linalg::Matrix::FromRows({{2.0, 0.0}, {0.0, 1.0}});
  EXPECT_FALSE(FamilyLikelihoodTable(pseudo, bad, 1).ok());
  linalg::Matrix indef =
      linalg::Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_FALSE(FamilyLikelihoodTable(pseudo, indef, 1).ok());
}

TEST(GaussianCopulaTest, DensityFavorsConcordantPointsUnderPositiveRho) {
  // Block 0 holds the concordant point, block 1 the discordant one.
  std::vector<std::vector<double>> pseudo = {
      {0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9},
      {0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1}};
  auto table = FamilyLikelihoodTable(pseudo, *data::Equicorrelation(2, 0.8), 2);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->gaussian[0], table->gaussian[1]);
}

TEST(GaussianCopulaTest, LogLikelihoodPeaksNearTrueCorrelation) {
  Rng rng(79);
  data::Table t = CorrelatedTable(3000, 0.6, &rng);
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  double best_rho = -2.0, best_ll = -1e300;
  for (double rho = -0.8; rho <= 0.85; rho += 0.1) {
    const double ll =
        GaussianLogLikelihood(*pseudo, *data::Equicorrelation(2, rho));
    if (ll > best_ll) {
      best_ll = ll;
      best_rho = rho;
    }
  }
  EXPECT_NEAR(best_rho, 0.6, 0.15);
}

TEST(GaussianCopulaTest, AicPrefersTrueModel) {
  Rng rng(83);
  data::Table t = CorrelatedTable(2000, 0.6, &rng);
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  // AIC = 2 C(m,2) - 2 loglik with C(2,2) = 1 correlation.
  auto aic = [&](double rho) {
    return 2.0 - 2.0 * GaussianLogLikelihood(*pseudo,
                                             *data::Equicorrelation(2, rho));
  };
  EXPECT_LT(aic(0.6), aic(-0.6));
}

TEST(NormalScoresCorrelationTest, RecoversGeneratingCorrelation) {
  Rng rng(89);
  data::Table t = CorrelatedTable(5000, 0.7, &rng);
  auto pseudo = PseudoObservations(t);
  ASSERT_TRUE(pseudo.ok());
  const auto scores = reference::NormalScores(*pseudo);
  const double* cols[] = {scores[0].data(), scores[1].data()};
  auto corr = NormalScoresCorrelationTiledPacked(cols, 2, scores[0].size());
  ASSERT_TRUE(corr.ok());
  EXPECT_NEAR(corr->at(1, 0), 0.7, 0.05);
  EXPECT_DOUBLE_EQ(corr->at(0, 0), 1.0);
}

TEST(NormalScoresCorrelationTest, ValidatesInput) {
  const double col[] = {1.0, 2.0};
  const double* cols[] = {col, col};
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(cols, 0, 2).ok());
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(cols, 2, 1).ok());
  EXPECT_TRUE(NormalScoresCorrelationTiledPacked(cols, 2, 2).ok());
}

TEST(KendallEstimatorTest, AdequateSampleSizeFormula) {
  // Paper §4.2: smallest integer n̂ with n̂ > 50·m(m-1)/ε₂ − 1. For an
  // integral 50·m(m-1)/ε₂ = X the answer is X itself (X > X − 1 holds).
  EXPECT_EQ(AdequateKendallSampleSize(2, 1.0), 100);
  EXPECT_EQ(AdequateKendallSampleSize(8, 0.5), 5600);
  // Non-integral X = 300/0.7 ≈ 428.57: the bound is 427.57, so 428 is
  // already adequate — the pre-fix code (which dropped the "−1") demanded
  // 429.
  EXPECT_EQ(AdequateKendallSampleSize(3, 0.7), 428);
  // X = 100/3: bound ≈ 32.33, smallest adequate integer is 33.
  EXPECT_EQ(AdequateKendallSampleSize(2, 3.0), 33);
}

TEST(KendallEstimatorTest, AdequateSampleSizeSaturatesForTinyEpsilon) {
  // 50·m(m-1)/ε₂ overflows int64 for tiny ε₂; the result must saturate,
  // not wrap (callers min() it against the real row count).
  EXPECT_EQ(AdequateKendallSampleSize(100, 1e-300),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(AdequateKendallSampleSize(2, 1e-12), 0);
}

TEST(KendallEstimatorTest, HighBudgetRecoversCorrelation) {
  Rng rng(97);
  data::Table t = CorrelatedTable(8000, 0.6, &rng);
  KendallEstimatorOptions opts;
  opts.subsample = false;
  auto est = EstimateKendallCorrelation(t, 100.0, &rng, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->correlation(0, 1), 0.6, 0.05);
  EXPECT_EQ(est->rows_used, 8000);
  EXPECT_TRUE(linalg::IsPositiveDefinite(est->correlation));
}

TEST(KendallEstimatorTest, SubsamplingActivates) {
  Rng rng(101);
  data::Table t = CorrelatedTable(50000, 0.5, &rng);
  KendallEstimatorOptions opts;
  opts.subsample = true;
  auto est = EstimateKendallCorrelation(t, 1.0, &rng, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->rows_used, AdequateKendallSampleSize(2, 1.0));
  EXPECT_LT(est->rows_used, 50000);
  // Correlation should still be in the right ballpark.
  EXPECT_GT(est->correlation(0, 1), 0.0);
}

TEST(KendallEstimatorTest, TinyBudgetStillYieldsValidCorrelation) {
  Rng rng(103);
  data::Table t = CorrelatedTable(500, 0.5, &rng);
  auto est = EstimateKendallCorrelation(t, 0.001, &rng);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(linalg::IsPositiveDefinite(est->correlation));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(est->correlation(i, i), 1.0, 1e-9);
  }
}

TEST(KendallEstimatorTest, ValidatesInput) {
  Rng rng(107);
  data::Table t = CorrelatedTable(100, 0.5, &rng);
  EXPECT_FALSE(EstimateKendallCorrelation(t, 0.0, &rng).ok());
  auto one_col = t.Project({0});
  EXPECT_FALSE(EstimateKendallCorrelation(*one_col, 1.0, &rng).ok());
}

TEST(MleEstimatorTest, PartitionCountFormula) {
  // ceil(C(m,2) / (0.025 * eps2)).
  EXPECT_EQ(PaperMlePartitionCount(2, 1.0), 40);
  EXPECT_EQ(PaperMlePartitionCount(8, 0.5), 2240);
}

TEST(MleEstimatorTest, PartitionCountSaturatesForTinyEpsilon) {
  // C(m,2) / (0.025 ε₂) overflows int64 for tiny ε₂; the result must
  // saturate, not invoke UB via an out-of-range double→int64 cast
  // (the caller clamps against the real row count anyway).
  EXPECT_EQ(PaperMlePartitionCount(2, 1e-300),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(PaperMlePartitionCount(10000, 1e-12),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(PaperMlePartitionCount(2, 1e-3), 0);
}

TEST(MleEstimatorTest, TinyEpsilonAutoPartitionsStillFit) {
  // End-to-end at ε₂ = 1e-300: the saturated partition count must clamp
  // down to something that still fits the data instead of overflowing.
  Rng rng(131);
  data::Table t = CorrelatedTable(400, 0.5, &rng);
  auto est = EstimateMleCorrelation(t, 1e-300, &rng);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GE(est->rows_per_partition, 10);
  EXPECT_TRUE(linalg::IsPositiveDefinite(est->correlation));
}

TEST(MleEstimatorTest, ReportsDroppedRemainderRows) {
  Rng rng(137);
  // 403 rows over 8 partitions: b = 50, 3 trailing rows dropped.
  data::Table t = CorrelatedTable(403, 0.5, &rng);
  MleEstimatorOptions opts;
  opts.num_partitions = 8;
  auto est = EstimateMleCorrelation(t, 5.0, &rng, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->rows_per_partition, 50);
  EXPECT_EQ(est->rows_dropped, 3);

  // Evenly divisible: nothing dropped.
  data::Table even = CorrelatedTable(400, 0.5, &rng);
  auto est2 = EstimateMleCorrelation(even, 5.0, &rng, opts);
  ASSERT_TRUE(est2.ok());
  EXPECT_EQ(est2->rows_dropped, 0);
}

TEST(MleEstimatorTest, HighBudgetRecoversCorrelation) {
  Rng rng(109);
  data::Table t = CorrelatedTable(20000, 0.6, &rng);
  MleEstimatorOptions opts;
  opts.num_partitions = 40;
  auto est = EstimateMleCorrelation(t, 50.0, &rng, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->num_partitions, 40);
  EXPECT_EQ(est->rows_per_partition, 500);
  EXPECT_NEAR(est->correlation(0, 1), 0.6, 0.08);
}

TEST(MleEstimatorTest, AutoPartitionsClampedForSmallData) {
  Rng rng(113);
  data::Table t = CorrelatedTable(300, 0.5, &rng);
  auto est = EstimateMleCorrelation(t, 0.5, &rng);
  ASSERT_TRUE(est.ok());
  // Paper rule would demand 80 partitions of < 4 rows; the clamp must keep
  // >= kMleMinPartitionRows rows in each.
  EXPECT_GE(est->rows_per_partition, 10);
  EXPECT_TRUE(linalg::IsPositiveDefinite(est->correlation));
}

TEST(MleEstimatorTest, ValidatesInput) {
  Rng rng(127);
  data::Table t = CorrelatedTable(100, 0.5, &rng);
  EXPECT_FALSE(EstimateMleCorrelation(t, -1.0, &rng).ok());
  auto one_col = t.Project({0});
  EXPECT_FALSE(EstimateMleCorrelation(*one_col, 1.0, &rng).ok());
}

TEST(SamplerTest, OutputRespectsSchemaAndRowCount) {
  Rng rng(131);
  data::Schema schema({{"a", 20}, {"b", 30}});
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(std::vector<double>(20, 1.0)));
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(std::vector<double>(30, 1.0)));
  auto out = SampleSyntheticData(schema, cdfs, *data::Equicorrelation(2, 0.4),
                                 1234, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1234u);
  EXPECT_TRUE(out->Validate().ok());
}

TEST(SamplerTest, ValidatesShapes) {
  Rng rng(137);
  data::Schema schema({{"a", 20}, {"b", 30}});
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(std::vector<double>(20, 1.0)));
  EXPECT_FALSE(SampleSyntheticData(schema, cdfs,
                                   *data::Equicorrelation(2, 0.4), 10, &rng)
                   .ok());
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(std::vector<double>(7, 1.0)));
  EXPECT_FALSE(SampleSyntheticData(schema, cdfs,
                                   *data::Equicorrelation(2, 0.4), 10, &rng)
                   .ok());
}

TEST(SamplerTest, PreservesMarginsAndDependence) {
  Rng rng(139);
  // Build skewed margins and a strong correlation, then sample and verify
  // both are reproduced.
  std::vector<double> counts_a(50), counts_b(50);
  for (std::size_t i = 0; i < 50; ++i) {
    counts_a[i] = static_cast<double>(50 - i);  // Decreasing.
    counts_b[i] = static_cast<double>(i + 1);   // Increasing.
  }
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts_a));
  cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts_b));
  data::Schema schema({{"a", 50}, {"b", 50}});
  const double rho = 0.7;
  auto out = SampleSyntheticData(schema, cdfs, *data::Equicorrelation(2, rho),
                                 30000, &rng);
  ASSERT_TRUE(out.ok());
  // Margin check: mean of column a should be below 25 (decreasing weights),
  // column b above.
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    mean_a += out->at(r, 0);
    mean_b += out->at(r, 1);
  }
  mean_a /= 30000.0;
  mean_b /= 30000.0;
  EXPECT_LT(mean_a, 21.0);
  EXPECT_GT(mean_b, 29.0);
  // Dependence check via Kendall's tau.
  auto tau = stats::KendallTau(out->column(0), out->column(1));
  ASSERT_TRUE(tau.ok());
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.05);
}

TEST(KendallEstimatorTest, ThreadedMatchesSequentialExactly) {
  // Per-pair RNG streams make the estimate independent of the thread
  // count: 1 thread and 4 threads must agree bit for bit.
  Rng data_rng(151);
  std::vector<data::MarginSpec> specs;
  for (int j = 0; j < 5; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("x" + std::to_string(j), 300));
  }
  auto t = data::GenerateGaussianDependent(
      specs, data::Ar1Correlation(5, 0.5), 3000, &data_rng);
  ASSERT_TRUE(t.ok());
  KendallEstimatorOptions seq, par;
  seq.subsample = false;
  seq.num_threads = 1;
  par.subsample = false;
  par.num_threads = 4;
  Rng r1(42), r2(42);
  auto a = EstimateKendallCorrelation(*t, 1.0, &r1, seq);
  auto b = EstimateKendallCorrelation(*t, 1.0, &r2, par);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->correlation.MaxAbsDiff(b->correlation), 0.0);
}

class KendallVsMleAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(KendallVsMleAccuracyTest, BothProduceValidCorrelations) {
  Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  data::Table t = CorrelatedTable(4000, 0.5, &rng);
  auto kendall = EstimateKendallCorrelation(t, 0.5, &rng);
  auto mle = EstimateMleCorrelation(t, 0.5, &rng);
  ASSERT_TRUE(kendall.ok());
  ASSERT_TRUE(mle.ok());
  EXPECT_TRUE(linalg::IsPositiveDefinite(kendall->correlation));
  EXPECT_TRUE(linalg::IsPositiveDefinite(mle->correlation));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KendallVsMleAccuracyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace dpcopula::copula
