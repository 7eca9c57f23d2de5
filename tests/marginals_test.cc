#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "marginals/dwork.h"
#include "marginals/efpa.h"
#include "marginals/marginal_method.h"
#include "marginals/noisefirst.h"
#include "marginals/postprocess.h"
#include "marginals/structurefirst.h"

namespace dpcopula::marginals {
namespace {

std::vector<double> SmoothHistogram(std::size_t n) {
  // Gaussian-bump counts: the smooth, large-domain margin EFPA excels at.
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z =
        (static_cast<double>(i) - static_cast<double>(n) / 2.0) /
        (static_cast<double>(n) / 6.0);
    h[i] = 1000.0 * std::exp(-0.5 * z * z);
  }
  return h;
}

double L2Error(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc);
}

TEST(DworkTest, ValidatesInput) {
  Rng rng(1);
  EXPECT_FALSE(PublishDworkHistogram({}, 1.0, &rng).ok());
}

TEST(DworkTest, PreservesLengthAndApproximatesCounts) {
  Rng rng(3);
  const std::vector<double> counts = {100, 200, 300, 400};
  auto noisy = PublishDworkHistogram(counts, 10.0, &rng);
  ASSERT_TRUE(noisy.ok());
  ASSERT_EQ(noisy->size(), 4u);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR((*noisy)[i], counts[i], 5.0);  // b = 0.1; 5 is ~50 sigma.
  }
}

TEST(DworkTest, NoiseScalesInverselyWithEpsilon) {
  Rng rng(5);
  const std::vector<double> zeros(200, 0.0);
  double err_tight = 0.0, err_loose = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    err_tight += L2Error(zeros, *PublishDworkHistogram(zeros, 10.0, &rng));
    err_loose += L2Error(zeros, *PublishDworkHistogram(zeros, 0.1, &rng));
  }
  EXPECT_GT(err_loose, 10.0 * err_tight);
}

TEST(EfpaTest, ValidatesInput) {
  Rng rng(7);
  EXPECT_FALSE(PublishEfpaHistogram({}, 1.0, &rng).ok());
  EXPECT_FALSE(PublishEfpaHistogram({1.0}, 0.0, &rng).ok());
}

TEST(EfpaTest, ExpectedErrorTradeoff) {
  // tail[k] decreasing in k, noise term increasing: expected error should
  // have an interior structure, and keeping everything must cost more noise
  // than keeping one coefficient.
  std::vector<double> tail(101, 0.0);
  for (std::size_t i = 100; i-- > 0;) {
    tail[i] = tail[i + 1] + 1.0;  // Flat spectrum.
  }
  const double e1 = EfpaExpectedError(tail, 1, 1.0);
  const double e100 = EfpaExpectedError(tail, 100, 1.0);
  EXPECT_LT(e1, e100);  // Flat spectra favor tiny k.
}

TEST(EfpaTest, ReconstructsSmoothHistogramAccurately) {
  Rng rng(11);
  const auto counts = SmoothHistogram(256);
  auto noisy = PublishEfpaHistogram(counts, 1.0, &rng);
  ASSERT_TRUE(noisy.ok());
  ASSERT_EQ(noisy->size(), counts.size());
  // Relative L2 error should be small for a smooth signal at epsilon = 1.
  EXPECT_LT(L2Error(counts, *noisy) / L2Error(counts, std::vector<double>(
                                                          counts.size(), 0.0)),
            0.1);
}

TEST(EfpaTest, BeatsDworkOnSmoothLargeDomainHistograms) {
  // The reason DPCopula uses EFPA for margins (paper §4.1). Averaged over
  // repetitions to keep the test stable.
  Rng rng(13);
  const auto counts = SmoothHistogram(512);
  const double eps = 0.1;
  double efpa_err = 0.0, dwork_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    efpa_err += L2Error(counts, *PublishEfpaHistogram(counts, eps, &rng));
    dwork_err += L2Error(counts, *PublishDworkHistogram(counts, eps, &rng));
  }
  EXPECT_LT(efpa_err, dwork_err);
}

TEST(EfpaTest, TotalMassApproximatelyPreserved) {
  Rng rng(17);
  const auto counts = SmoothHistogram(128);
  double true_total = 0.0;
  for (double c : counts) true_total += c;
  auto noisy = PublishEfpaHistogram(counts, 1.0, &rng);
  ASSERT_TRUE(noisy.ok());
  double noisy_total = 0.0;
  for (double c : *noisy) noisy_total += c;
  EXPECT_NEAR(noisy_total / true_total, 1.0, 0.05);
}

TEST(MarginalMethodTest, DispatchesAllMethods) {
  Rng rng(19);
  const std::vector<double> counts = {10, 20, 30};
  EXPECT_TRUE(
      PublishMarginal(MarginalMethod::kEfpa, counts, 1.0, &rng).ok());
  EXPECT_TRUE(
      PublishMarginal(MarginalMethod::kDwork, counts, 1.0, &rng).ok());
  EXPECT_TRUE(
      PublishMarginal(MarginalMethod::kNoiseFirst, counts, 1.0, &rng).ok());
  EXPECT_TRUE(
      PublishMarginal(MarginalMethod::kStructureFirst, counts, 1.0, &rng)
          .ok());
}

TEST(StructureFirstTest, ValidatesInput) {
  Rng rng(61);
  EXPECT_FALSE(PublishStructureFirstHistogram({}, 1.0, &rng).ok());
  EXPECT_FALSE(PublishStructureFirstHistogram({1.0, 2.0}, 0.0, &rng).ok());
  StructureFirstOptions bad;
  bad.structure_budget_fraction = 1.0;
  EXPECT_FALSE(
      PublishStructureFirstHistogram({1.0, 2.0}, 1.0, &rng, bad).ok());
}

TEST(StructureFirstTest, OutputLengthAndMassPreserved) {
  Rng rng(67);
  std::vector<double> counts(150, 40.0);
  auto out = PublishStructureFirstHistogram(counts, 2.0, &rng);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 150u);
  double total = 0.0;
  for (double v : *out) total += v;
  EXPECT_NEAR(total, 150.0 * 40.0, 300.0);
}

TEST(StructureFirstTest, FindsStepBoundaryAtHighBudget) {
  Rng rng(71);
  std::vector<double> counts(100, 5.0);
  for (std::size_t i = 60; i < 100; ++i) counts[i] = 500.0;
  auto out = PublishStructureFirstHistogram(counts, 20.0, &rng);
  ASSERT_TRUE(out.ok());
  // Bins deep inside each level should be near the level values.
  EXPECT_NEAR((*out)[20], 5.0, 30.0);
  EXPECT_NEAR((*out)[90], 500.0, 60.0);
}

TEST(StructureFirstTest, BeatsDworkOnPiecewiseConstantAtLowBudget) {
  Rng rng(73);
  std::vector<double> counts(200, 10.0);
  for (std::size_t i = 40; i < 90; ++i) counts[i] = 400.0;
  const double eps = 0.05;
  double sf_err = 0.0, dwork_err = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    sf_err += L2Error(counts,
                      *PublishStructureFirstHistogram(counts, eps, &rng));
    dwork_err +=
        L2Error(counts, *PublishDworkHistogram(counts, eps, &rng));
  }
  EXPECT_LT(sf_err, dwork_err);
}

TEST(NoiseFirstTest, ValidatesInput) {
  Rng rng(41);
  EXPECT_FALSE(PublishNoiseFirstHistogram({}, 1.0, &rng).ok());
  EXPECT_FALSE(PublishNoiseFirstHistogram({1.0}, 0.0, &rng).ok());
}

TEST(NoiseFirstTest, MergeRecoversPiecewiseConstantSignal) {
  // A two-level step function with zero noise variance: the DP should find
  // exactly the step boundary and reproduce the input.
  std::vector<double> step(40, 5.0);
  for (std::size_t i = 20; i < 40; ++i) step[i] = 50.0;
  const auto merged = MergeNoisyHistogram(step, 0.0, 8);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(merged[i], step[i], 1e-9) << i;
  }
}

TEST(NoiseFirstTest, MergeAveragesAwayNoiseOnFlatSignal) {
  // Flat true signal + large declared noise variance: the optimum is one
  // bucket, whose mean has far less noise than any single bin.
  Rng rng(43);
  std::vector<double> noisy(100);
  for (double& v : noisy) v = 50.0 + 10.0 * rng.NextGaussian();
  const auto merged = MergeNoisyHistogram(noisy, 100.0, 16);
  // All output bins equal (single bucket) and close to 50.
  for (double v : merged) EXPECT_NEAR(v, merged[0], 1e-9);
  EXPECT_NEAR(merged[0], 50.0, 4.0);
}

TEST(NoiseFirstTest, BeatsDworkOnPiecewiseConstantHistograms) {
  Rng rng(47);
  std::vector<double> counts(200, 10.0);
  for (std::size_t i = 50; i < 120; ++i) counts[i] = 300.0;
  const double eps = 0.05;
  double nf_err = 0.0, dwork_err = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    nf_err += L2Error(counts,
                      *PublishNoiseFirstHistogram(counts, eps, &rng));
    dwork_err +=
        L2Error(counts, *PublishDworkHistogram(counts, eps, &rng));
  }
  EXPECT_LT(nf_err, dwork_err);
}

TEST(NoiseFirstTest, OutputLengthMatchesInput) {
  Rng rng(53);
  const auto out = PublishNoiseFirstHistogram(
      std::vector<double>(37, 5.0), 1.0, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 37u);
}

TEST(SimplexProjectionTest, PreservesTotalAndNonNegativity) {
  const std::vector<double> noisy = {5.0, -3.0, 2.0, -1.0, 7.0};
  const auto out = ProjectToSimplex(noisy, 10.0);
  double total = 0.0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(SimplexProjectionTest, AlreadyFeasibleInputUnchanged) {
  const std::vector<double> clean = {1.0, 2.0, 3.0};
  const auto out = ProjectToSimplex(clean, 6.0);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_NEAR(out[i], clean[i], 1e-12);
  }
}

TEST(SimplexProjectionTest, NegativeTotalClampsToZero) {
  const auto out = ProjectToSimplex({1.0, 2.0}, -5.0);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SimplexProjectionTest, ScalesUpWhenPositivePartTooSmall) {
  const auto out = ProjectToSimplex({1.0, -10.0, 1.0}, 8.0);
  EXPECT_NEAR(out[0], 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_NEAR(out[2], 4.0, 1e-12);
}

TEST(SimplexProjectionTest, RemovesClampingBias) {
  // Pure-noise histogram: naive clamping keeps ~half the bins positive with
  // mean b/2 each; the projection to the (near-zero) noisy total must shed
  // almost all of that phantom mass.
  Rng rng(31);
  const std::size_t n = 1000;
  std::vector<double> noise(n);
  double total = 0.0;
  for (double& v : noise) {
    v = (rng.NextDouble() - 0.5) * 100.0;
    total += v;
  }
  double clamped_mass = 0.0;
  for (double v : noise) clamped_mass += std::max(0.0, v);
  const auto projected = ProjectToSimplex(noise, std::max(0.0, total));
  double projected_mass = 0.0;
  for (double v : projected) projected_mass += v;
  // The projection hits the unbiased noisy total exactly, while naive
  // clamping inflates the mass by ~E[max(0, noise)] per bin (~12.5k here).
  EXPECT_NEAR(projected_mass, std::max(0.0, total), 1e-6);
  EXPECT_GT(clamped_mass, 5.0 * projected_mass);
}

TEST(SimplexProjectionTest, ProjectToNoisyTotalMatchesExplicit) {
  const std::vector<double> noisy = {4.0, -1.0, 3.0};
  const auto a = ProjectToNoisyTotal(noisy);
  const auto b = ProjectToSimplex(noisy, 6.0);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(SimplexProjectionTest, EmptyInput) {
  EXPECT_TRUE(ProjectToSimplex({}, 5.0).empty());
}

class EfpaEpsilonSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(EfpaEpsilonSweepTest, OutputFiniteAtAllBudgets) {
  Rng rng(23);
  const auto counts = SmoothHistogram(200);
  auto noisy = PublishEfpaHistogram(counts, GetParam(), &rng);
  ASSERT_TRUE(noisy.ok());
  for (double v : *noisy) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Budgets, EfpaEpsilonSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace dpcopula::marginals
