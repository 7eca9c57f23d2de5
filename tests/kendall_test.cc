#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "reference/kendall_reference.h"
#include "stats/kendall.h"

namespace dpcopula::stats {
namespace {

// The inversion count behind the Knight's-algorithm oracle.
TEST(InversionsTest, SortedHasNone) {
  EXPECT_EQ(reference::CountInversions({1, 2, 3, 4, 5}), 0u);
}

TEST(InversionsTest, ReverseSortedHasAll) {
  EXPECT_EQ(reference::CountInversions({5, 4, 3, 2, 1}), 10u);
}

TEST(InversionsTest, KnownCase) {
  // (2,1), (3,1), (8,1), (8,7) -> 4 inversions.
  EXPECT_EQ(reference::CountInversions({2, 3, 8, 1, 7}), 4u);
}

TEST(KendallTest, PerfectConcordance) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(*KendallTau(x, x), 1.0);
}

TEST(KendallTest, PerfectDiscordance) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y(x.rbegin(), x.rend());
  EXPECT_DOUBLE_EQ(*KendallTau(x, y), -1.0);
}

TEST(KendallTest, InvariantUnderMonotoneTransform) {
  Rng rng(1);
  std::vector<double> x(500), y(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.NextGaussian();
    y[i] = 0.6 * x[i] + 0.8 * rng.NextGaussian();
  }
  std::vector<double> x_exp(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x_exp[i] = std::exp(x[i]);
  EXPECT_NEAR(*KendallTau(x, y), *KendallTau(x_exp, y), 1e-12);
}

TEST(KendallTest, KnownSmallExample) {
  // x: 1 2 3 4; y: 1 3 2 4 -> 5 concordant, 1 discordant, tau = 4/6.
  EXPECT_NEAR(*KendallTau({1, 2, 3, 4}, {1, 3, 2, 4}), 4.0 / 6.0, 1e-12);
}

TEST(KendallTest, TiesCountAsNeither) {
  // x: 1 1 2; y: 1 2 3. Pairs: (1,2) tied on x; (1,3),(2,3) concordant.
  // tau-a = 2 / 3.
  EXPECT_NEAR(*KendallTau({1, 1, 2}, {1, 2, 3}), 2.0 / 3.0, 1e-12);
}

TEST(KendallTest, ErrorsOnBadInput) {
  EXPECT_FALSE(KendallTau({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(KendallTau({1}, {1}).ok());
}

TEST(KendallTest, RejectsNonFiniteInput) {
  // A NaN in either column would make a sort comparator a non-strict weak
  // order — UB in std::sort — so the kernel and both oracles must fail
  // closed, with a data-independent message.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> clean = {1, 2, 3, 4};
  for (const double bad : {nan, inf, -inf}) {
    const std::vector<double> poisoned = {1, bad, 3, 4};
    for (auto* fn : {&KendallTau, &reference::KendallTau,
                     &reference::KendallTauBruteForce}) {
      auto xy = (*fn)(poisoned, clean);
      auto yx = (*fn)(clean, poisoned);
      ASSERT_FALSE(xy.ok());
      ASSERT_FALSE(yx.ok());
      EXPECT_EQ(xy.status().code(), StatusCode::kInvalidArgument);
      // Same message wherever the bad value sits: no positions, no values.
      EXPECT_EQ(xy.status().message(), yx.status().message());
      EXPECT_EQ(xy.status().message().find("nan"), std::string::npos);
    }
  }
}

TEST(KendallTest, GaussianRelationTauToRho) {
  // For bivariate normal: tau = (2/pi) arcsin(rho). Verify at rho = 0.5.
  Rng rng(2);
  const double rho = 0.5;
  const std::size_t n = 20000;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z1 = rng.NextGaussian();
    const double z2 = rng.NextGaussian();
    x[i] = z1;
    y[i] = rho * z1 + std::sqrt(1 - rho * rho) * z2;
  }
  const double expected = 2.0 / M_PI * std::asin(rho);
  EXPECT_NEAR(*KendallTau(x, y), expected, 0.02);
}

class KendallEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KendallEquivalenceTest, FastMatchesBruteForce) {
  // Against both oracles: Knight's algorithm to the last bit, the O(n^2)
  // definition to round-off.
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const std::size_t n = 50 + static_cast<std::size_t>(GetParam()) * 17;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Small discrete domain forces plenty of ties in both coordinates.
    x[i] = static_cast<double>(rng.NextUint64Below(8));
    y[i] = static_cast<double>(rng.NextUint64Below(8)) + 0.25 * x[i];
  }
  EXPECT_EQ(*KendallTau(x, y), *reference::KendallTau(x, y));
  EXPECT_NEAR(*KendallTau(x, y), *reference::KendallTauBruteForce(x, y),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomData, KendallEquivalenceTest,
                         ::testing::Range(0, 12));

class KendallSensitivityTest : public ::testing::TestWithParam<int> {};

TEST_P(KendallSensitivityTest, AddingOneTupleBoundedByLemma41) {
  // Lemma 4.1: |tau(D) - tau(D')| <= 4 / (n + 1) when D' = D + one tuple.
  Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  const std::size_t n = 60;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(rng.NextUint64Below(1000));
    y[i] = static_cast<double>(rng.NextUint64Below(1000));
  }
  const double tau_base = *KendallTau(x, y);
  const double bound = 4.0 / (static_cast<double>(n) + 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x2 = x, y2 = y;
    // Adversarial-ish extremes as well as random insertions.
    x2.push_back(static_cast<double>(rng.NextUint64Below(1000)));
    y2.push_back(trial % 3 == 0   ? 0.0
                 : trial % 3 == 1 ? 999.0
                                  : static_cast<double>(
                                        rng.NextUint64Below(1000)));
    const double tau_neighbor = *KendallTau(x2, y2);
    EXPECT_LE(std::fabs(tau_neighbor - tau_base), bound + 1e-12)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KendallSensitivityTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dpcopula::stats
