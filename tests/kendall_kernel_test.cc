// Equivalence and determinism suite for the rank-cache Kendall kernel:
// exact tau agreement between KendallTauFromRanks and the one-sort-per-pair
// KendallTau on tied, untied, and degenerate data; contingency-kernel
// cross-checks against the brute-force reference; noisy estimator output
// bit-identical to the per-pair oracle in tests/reference/ and across
// 1/2/4/8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "data/generator.h"
#include "linalg/matrix.h"
#include "reference/kendall_reference.h"
#include "stats/kendall.h"

namespace dpcopula {
namespace {

using copula::EstimateKendallCorrelation;
using copula::KendallEstimatorOptions;
using stats::BuildRankColumn;
using stats::KendallTau;
using stats::KendallTauBruteForce;
using stats::KendallTauFromRanks;
using stats::RankColumn;
using stats::TauWorkspace;
using stats::UseContingencyKernel;

double RankCacheTau(const std::vector<double>& x,
                    const std::vector<double>& y) {
  auto rx = BuildRankColumn(x);
  auto ry = BuildRankColumn(y);
  EXPECT_TRUE(rx.ok());
  EXPECT_TRUE(ry.ok());
  TauWorkspace ws;
  auto tau = KendallTauFromRanks(*rx, *ry, &ws);
  EXPECT_TRUE(tau.ok());
  return *tau;
}

// ---------------------------------------------------------------------------
// RankColumn structure.

TEST(RankColumnTest, CodesOrderAndTies) {
  auto col = BuildRankColumn({3.0, 1.0, 3.0, 2.0, 1.0});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->num_distinct, 3u);
  EXPECT_EQ(col->rank, (std::vector<std::uint32_t>{2, 0, 2, 1, 0}));
  // Stable (value, row) order: 1.0@1, 1.0@4, 2.0@3, 3.0@0, 3.0@2.
  EXPECT_EQ(col->order, (std::vector<std::uint32_t>{1, 4, 3, 0, 2}));
  // Two groups of 2 -> C(2,2)+C(2,2) = 2 tied pairs.
  EXPECT_EQ(col->tied_pairs, 2u);
}

TEST(RankColumnTest, ConstantColumn) {
  auto col = BuildRankColumn({7.0, 7.0, 7.0, 7.0});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->num_distinct, 1u);
  EXPECT_EQ(col->tied_pairs, 6u);  // C(4,2).
}

TEST(RankColumnTest, RejectsNonFinite) {
  EXPECT_FALSE(BuildRankColumn({1.0, std::nan(""), 2.0}).ok());
  EXPECT_FALSE(
      BuildRankColumn({1.0, std::numeric_limits<double>::infinity()}).ok());
}

TEST(ContingencySelectionTest, SmallDomainsUseTable) {
  EXPECT_TRUE(UseContingencyKernel(1000000, 64, 64));
  EXPECT_TRUE(UseContingencyKernel(10, 8, 8));  // Floor keeps tiny n on it.
  EXPECT_FALSE(UseContingencyKernel(1000, 500, 500));
}

// ---------------------------------------------------------------------------
// Exact old-vs-new tau equality. EXPECT_EQ on doubles is deliberate: the
// kernels compute identical integer pair counts and share the final
// division, so the taus must agree to the last bit.

TEST(TauKernelEquivalenceTest, KnownSmallExamples) {
  EXPECT_EQ(RankCacheTau({1, 2, 3, 4}, {1, 3, 2, 4}),
            *KendallTau({1, 2, 3, 4}, {1, 3, 2, 4}));
  EXPECT_EQ(RankCacheTau({1, 1, 2}, {1, 2, 3}),
            *KendallTau({1, 1, 2}, {1, 2, 3}));
  EXPECT_EQ(RankCacheTau({1, 2, 3}, {3, 2, 1}), -1.0);
}

TEST(TauKernelEquivalenceTest, ConstantColumns) {
  const std::vector<double> c(10, 4.0);
  std::vector<double> v(10);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i % 3);
  }
  EXPECT_EQ(RankCacheTau(c, v), 0.0);
  EXPECT_EQ(RankCacheTau(v, c), 0.0);
  EXPECT_EQ(RankCacheTau(c, c), 0.0);
  EXPECT_EQ(*KendallTau(c, v), 0.0);
}

class TauKernelRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TauKernelRandomTest, ExactEqualityAcrossTieRegimes) {
  Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  const std::size_t n = 80 + static_cast<std::size_t>(GetParam()) * 37;
  // Three tie regimes: heavy (domain 4), moderate (domain 32), none
  // (continuous draws). The heavy and moderate cases land on the
  // contingency kernel, the continuous case on the merge kernel.
  for (const int regime : {0, 1, 2}) {
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (regime == 0) {
        x[i] = static_cast<double>(rng.NextUint64Below(4));
        y[i] = static_cast<double>(rng.NextUint64Below(4));
      } else if (regime == 1) {
        x[i] = static_cast<double>(rng.NextUint64Below(32));
        y[i] = static_cast<double>(rng.NextUint64Below(32)) + 0.5 * x[i];
      } else {
        x[i] = rng.NextGaussian();
        y[i] = 0.4 * x[i] + rng.NextGaussian();
      }
    }
    const double legacy = *KendallTau(x, y);
    const double cached = RankCacheTau(x, y);
    EXPECT_EQ(cached, legacy) << "regime " << regime;
    EXPECT_NEAR(cached, *KendallTauBruteForce(x, y), 1e-12)
        << "regime " << regime;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TauKernelRandomTest, ::testing::Range(0, 10));

TEST(TauKernelEquivalenceTest, BothPairKernelsMatchBruteForce) {
  // Pin each pair kernel by construction and cross-check against the O(n^2)
  // reference: small domains select the contingency table, continuous data
  // the merge count.
  Rng rng(77);
  const std::size_t n = 300;
  std::vector<double> xs(n), ys(n), xc(n), yc(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(rng.NextUint64Below(6));
    ys[i] = static_cast<double>(rng.NextUint64Below(5));
    xc[i] = rng.NextGaussian();
    yc[i] = rng.NextGaussian() - 0.3 * xc[i];
  }
  auto check = [&](const std::vector<double>& x,
                   const std::vector<double>& y, bool want_contingency) {
    auto rx = BuildRankColumn(x);
    auto ry = BuildRankColumn(y);
    ASSERT_TRUE(rx.ok());
    ASSERT_TRUE(ry.ok());
    ASSERT_EQ(UseContingencyKernel(n, rx->num_distinct, ry->num_distinct),
              want_contingency);
    TauWorkspace ws;
    auto tau = KendallTauFromRanks(*rx, *ry, &ws);
    ASSERT_TRUE(tau.ok());
    EXPECT_NEAR(*tau, *KendallTauBruteForce(x, y), 1e-12);
    EXPECT_EQ(*tau, *KendallTau(x, y));
  };
  check(xs, ys, /*want_contingency=*/true);
  check(xc, yc, /*want_contingency=*/false);
  check(xs, yc, /*want_contingency=*/true);  // Mixed: 6 * ~300 under floor.
}

TEST(TauKernelEquivalenceTest, WorkspaceReuseAcrossPairsIsClean) {
  // One workspace serving pairs of very different shapes (constant,
  // heavy-tie contingency, continuous merge) must not leak state between
  // calls — this is the exact reuse pattern of the estimator's pair loop.
  Rng rng(88);
  TauWorkspace ws;
  std::vector<std::vector<double>> cols;
  cols.push_back(std::vector<double>(200, 1.0));
  std::vector<double> small(200), wide(200);
  for (std::size_t i = 0; i < 200; ++i) {
    small[i] = static_cast<double>(rng.NextUint64Below(3));
    wide[i] = rng.NextGaussian();
  }
  cols.push_back(small);
  cols.push_back(wide);
  std::vector<RankColumn> ranks;
  for (const auto& c : cols) {
    auto r = BuildRankColumn(c);
    ASSERT_TRUE(r.ok());
    ranks.push_back(*r);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      for (std::size_t k = j + 1; k < cols.size(); ++k) {
        auto tau = KendallTauFromRanks(ranks[j], ranks[k], &ws);
        ASSERT_TRUE(tau.ok());
        EXPECT_EQ(*tau, *KendallTau(cols[j], cols[k]))
            << "pass " << pass << " pair (" << j << "," << k << ")";
      }
    }
  }
}

TEST(TauKernelEquivalenceTest, ValidatesInput) {
  TauWorkspace ws;
  auto a = BuildRankColumn({1.0, 2.0, 3.0});
  auto b = BuildRankColumn({1.0, 2.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(KendallTauFromRanks(*a, *b, &ws).ok());  // Size mismatch.
  auto one = BuildRankColumn({1.0});
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(KendallTauFromRanks(*one, *one, &ws).ok());  // n < 2.
}

// ---------------------------------------------------------------------------
// Estimator-level guarantees under the new kernel.

data::Table MakeCorrelated(std::size_t n, std::size_t m, double rho,
                           std::uint64_t seed, std::int64_t domain = 24) {
  Rng rng(seed);
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("x" + std::to_string(j), domain));
  }
  auto corr = data::Equicorrelation(m, rho);
  return *data::GenerateGaussianDependent(specs, *corr, n, &rng);
}

void ExpectMatricesIdentical(const linalg::Matrix& a,
                             const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(KendallKernelEstimatorTest, NoisyOutputBitIdenticalAcrossKernels) {
  // Exact taus plus identical per-pair noise streams imply the released
  // matrices agree to the last bit with the one-sort-per-pair oracle —
  // tested on tied (small-domain) and nearly-untied (large-domain) data,
  // with and without subsampling.
  for (const std::int64_t domain : {6, 100000}) {
    data::Table t = MakeCorrelated(3000, 4, 0.5, 1234, domain);
    for (const bool subsample : {false, true}) {
      KendallEstimatorOptions options;
      options.subsample = subsample;
      Rng r1(55), r2(55);
      auto legacy = reference::EstimateKendallCorrelation(t, 0.8, &r1, options);
      auto cached = EstimateKendallCorrelation(t, 0.8, &r2, options);
      ASSERT_TRUE(legacy.ok());
      ASSERT_TRUE(cached.ok());
      ExpectMatricesIdentical(legacy->correlation, cached->correlation);
      EXPECT_EQ(legacy->rows_used, cached->rows_used);
      EXPECT_EQ(legacy->laplace_scale, cached->laplace_scale);
      EXPECT_EQ(legacy->repaired, cached->repaired);
      // Both consumed the same number of draws from the caller's RNG.
      EXPECT_EQ(r1.NextUint64(), r2.NextUint64());
    }
  }
}

TEST(KendallKernelEstimatorTest, ThreadCountInvariance) {
  data::Table t = MakeCorrelated(4000, 5, 0.4, 321);
  KendallEstimatorOptions options;
  options.subsample = false;
  linalg::Matrix reference;
  for (const int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    Rng rng(999);
    auto est = EstimateKendallCorrelation(t, 1.0, &rng, options);
    ASSERT_TRUE(est.ok()) << "threads=" << threads;
    if (threads == 1) {
      reference = est->correlation;
    } else {
      ExpectMatricesIdentical(reference, est->correlation);
    }
  }
}

TEST(KendallKernelEstimatorTest, ContingencyPairsReported) {
  // Small domains: every C(5,2) = 10 pair takes the contingency kernel.
  data::Table t = MakeCorrelated(2000, 5, 0.3, 77, /*domain=*/8);
  KendallEstimatorOptions options;
  options.subsample = false;
  Rng rng(7);
  auto est = EstimateKendallCorrelation(t, 1.0, &rng, options);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->contingency_pairs, 10);
}

TEST(KendallKernelEstimatorTest, RejectsNonFiniteData) {
  data::Table t = MakeCorrelated(100, 3, 0.3, 13);
  t.mutable_column(1)[17] = std::nan("");
  KendallEstimatorOptions options;
  options.subsample = false;
  Rng r1(5), r2(5);
  for (const auto& est :
       {EstimateKendallCorrelation(t, 1.0, &r1, options),
        reference::EstimateKendallCorrelation(t, 1.0, &r2, options)}) {
    ASSERT_FALSE(est.ok());
    EXPECT_NE(est.status().message().find("non-finite"), std::string::npos);
  }
}

}  // namespace
}  // namespace dpcopula
