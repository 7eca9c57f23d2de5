// Robustness sweep: random-but-valid option combinations and degenerate
// datasets must never crash, never violate output invariants, and never
// overspend the privacy budget. This is the property-style safety net for
// the whole public API surface.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dpcube.h"
#include "baselines/filter_priority.h"
#include "baselines/grids.h"
#include "baselines/php.h"
#include "baselines/privelet.h"
#include "baselines/psd.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "data/generator.h"

namespace dpcopula::core {
namespace {

data::Table RandomTable(Rng* rng) {
  const std::size_t m = 1 + rng->NextUint64Below(5);
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    const std::int64_t domain = 2 + static_cast<std::int64_t>(
                                        rng->NextUint64Below(300));
    switch (rng->NextUint64Below(3)) {
      case 0:
        specs.push_back(
            data::MarginSpec::Uniform("u" + std::to_string(j), domain));
        break;
      case 1:
        specs.push_back(
            data::MarginSpec::Gaussian("g" + std::to_string(j), domain));
        break;
      default:
        specs.push_back(
            data::MarginSpec::Zipf("z" + std::to_string(j), domain, 1.0));
    }
  }
  const double rho = 0.6 * rng->NextDouble();
  const std::size_t n = 2 + rng->NextUint64Below(3000);
  auto corr = data::Equicorrelation(m, rho);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

DpCopulaOptions RandomOptions(Rng* rng) {
  DpCopulaOptions opts;
  const double eps_choices[] = {0.001, 0.01, 0.1, 1.0, 10.0};
  opts.epsilon = eps_choices[rng->NextUint64Below(5)];
  const double k_choices[] = {0.1, 1.0, 8.0, 64.0};
  opts.budget_ratio_k = k_choices[rng->NextUint64Below(4)];
  opts.estimator = rng->NextUint64Below(2) == 0
                       ? CorrelationEstimator::kKendall
                       : CorrelationEstimator::kMle;
  switch (rng->NextUint64Below(3)) {
    case 0:
      opts.marginal_method = marginals::MarginalMethod::kEfpa;
      break;
    case 1:
      opts.marginal_method = marginals::MarginalMethod::kDwork;
      break;
    default:
      opts.marginal_method = marginals::MarginalMethod::kNoiseFirst;
  }
  switch (rng->NextUint64Below(4)) {
    case 0:
      opts.family = CopulaFamily::kGaussian;
      break;
    case 1:
      opts.family = CopulaFamily::kStudentT;
      opts.t_dof = rng->NextUint64Below(2) == 0 ? 4.0 : 0.0;
      break;
    case 2:
      opts.family = CopulaFamily::kAutoAic;
      break;
    default:
      opts.family = CopulaFamily::kEmpirical;
  }
  opts.kendall.subsample = rng->NextUint64Below(2) == 0;
  opts.oversample_factor = rng->NextUint64Below(2) == 0 ? 1.0 : 2.0;
  return opts;
}

class SynthesizeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SynthesizeFuzzTest, NeverCrashesAndKeepsInvariants) {
  Rng rng(static_cast<std::uint64_t>(9000 + GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    data::Table table = RandomTable(&rng);
    DpCopulaOptions opts = RandomOptions(&rng);
    auto res = Synthesize(table, opts, &rng);
    ASSERT_TRUE(res.ok()) << "m=" << table.num_columns()
                          << " n=" << table.num_rows()
                          << " err=" << res.status().ToString();
    // Invariants: domain-valid output, fully but never over-spent budget,
    // valid correlation diagonal.
    EXPECT_TRUE(res->synthetic.Validate().ok());
    EXPECT_LE(res->budget.spent(), opts.epsilon + 1e-9);
    EXPECT_GE(res->budget.spent(), 0.99 * opts.epsilon);
    for (std::size_t i = 0; i < res->model.correlation.rows(); ++i) {
      EXPECT_NEAR(res->model.correlation(i, i), 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizeFuzzTest, ::testing::Range(0, 10));

class HybridFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(HybridFuzzTest, MixedDomainsNeverCrash) {
  Rng rng(static_cast<std::uint64_t>(9500 + GetParam()));
  for (int trial = 0; trial < 4; ++trial) {
    // Mix of binary and large attributes.
    std::vector<data::MarginSpec> specs;
    const std::size_t num_small = 1 + rng.NextUint64Below(3);
    const std::size_t num_large = 1 + rng.NextUint64Below(2);
    for (std::size_t j = 0; j < num_small; ++j) {
      specs.push_back(data::MarginSpec::Bernoulli(
          "b" + std::to_string(j), 0.1 + 0.8 * rng.NextDouble()));
    }
    for (std::size_t j = 0; j < num_large; ++j) {
      specs.push_back(
          data::MarginSpec::Gaussian("g" + std::to_string(j), 100));
    }
    const std::size_t m = specs.size();
    auto corr = data::Equicorrelation(m, 0.2);
    auto table = data::GenerateGaussianDependent(
        specs, *corr, 50 + rng.NextUint64Below(2000), &rng);
    ASSERT_TRUE(table.ok());

    HybridOptions opts;
    const double eps_choices[] = {0.01, 0.1, 1.0};
    opts.epsilon = eps_choices[rng.NextUint64Below(3)];
    opts.inner = RandomOptions(&rng);
    auto res = SynthesizeHybrid(*table, opts, &rng);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    // Validate() reads each column to its own end, so a ragged table (the
    // large columns of an oversampled partition longer than its small
    // ones) passes it; the lengths are checked separately.
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(res->synthetic.column(j).size(), res->synthetic.num_rows())
          << "column " << j << " oversample "
          << opts.inner.oversample_factor;
    }
    EXPECT_TRUE(res->synthetic.Validate().ok());
    EXPECT_TRUE(res->synthetic.schema() == table->schema());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridFuzzTest, ::testing::Range(0, 6));

class BaselineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineFuzzTest, AllBaselinesSurviveRandomInputs) {
  Rng rng(static_cast<std::uint64_t>(9800 + GetParam()));
  for (int trial = 0; trial < 4; ++trial) {
    // Small domains so the dense-histogram methods are in range.
    std::vector<data::MarginSpec> specs;
    const std::size_t m = 1 + rng.NextUint64Below(3);
    for (std::size_t j = 0; j < m; ++j) {
      specs.push_back(data::MarginSpec::Zipf(
          "z" + std::to_string(j),
          2 + static_cast<std::int64_t>(rng.NextUint64Below(40)), 1.0));
    }
    auto corr = data::Equicorrelation(m, 0.1);
    auto table = data::GenerateGaussianDependent(
        specs, *corr, 1 + rng.NextUint64Below(500), &rng);
    ASSERT_TRUE(table.ok());
    const double eps_choices[] = {0.01, 0.1, 1.0};
    const double eps = eps_choices[rng.NextUint64Below(3)];

    std::vector<std::int64_t> lo(m, 0), hi(m);
    for (std::size_t j = 0; j < m; ++j) {
      hi[j] = table->schema().attribute(j).domain_size - 1;
    }
    auto check = [&](double answer) {
      EXPECT_TRUE(std::isfinite(answer));
    };
    {
      auto e = baselines::PsdTree::Build(*table, eps, &rng);
      ASSERT_TRUE(e.ok());
      check((*e)->EstimateRangeCount(lo, hi));
    }
    {
      auto e = baselines::PriveletMechanism::Release(*table, eps, &rng);
      ASSERT_TRUE(e.ok());
      check((*e)->EstimateRangeCount(lo, hi));
    }
    {
      auto e = baselines::FilterPrioritySummary::Build(*table, eps, &rng);
      ASSERT_TRUE(e.ok());
      check((*e)->EstimateRangeCount(lo, hi));
    }
    {
      auto e = baselines::PhpMechanism::Release(*table, eps, &rng);
      ASSERT_TRUE(e.ok());
      check((*e)->EstimateRangeCount(lo, hi));
    }
    {
      auto e = baselines::DpCubeMechanism::Release(*table, eps, &rng);
      ASSERT_TRUE(e.ok());
      check((*e)->EstimateRangeCount(lo, hi));
    }
    if (m == 2) {
      auto ug = baselines::UniformGrid::Build(*table, eps, &rng);
      ASSERT_TRUE(ug.ok());
      check((*ug)->EstimateRangeCount(lo, hi));
      auto ag = baselines::AdaptiveGrid::Build(*table, eps, &rng);
      ASSERT_TRUE(ag.ok());
      check((*ag)->EstimateRangeCount(lo, hi));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace dpcopula::core
