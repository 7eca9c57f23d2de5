#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "data/generator.h"
#include "hist/dct.h"
#include "hist/histogram.h"
#include "hist/summed_area.h"
#include "hist/wavelet.h"
#include "reference/dct_reference.h"

namespace dpcopula::hist {
namespace {

TEST(HistogramTest, CreateAndAccess) {
  auto h = Histogram::Create({3, 4});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_cells(), 12u);
  h->Set({1, 2}, 5.0);
  EXPECT_DOUBLE_EQ(h->At({1, 2}), 5.0);
  h->Add({1, 2}, 2.0);
  EXPECT_DOUBLE_EQ(h->At({1, 2}), 7.0);
  EXPECT_DOUBLE_EQ(h->Total(), 7.0);
}

TEST(HistogramTest, CellBudgetEnforced) {
  auto h = Histogram::Create({100000, 100000, 100000});
  EXPECT_EQ(h.status().code(), StatusCode::kResourceExhausted);
}

TEST(HistogramTest, RejectsBadDims) {
  EXPECT_FALSE(Histogram::Create({}).ok());
  EXPECT_FALSE(Histogram::Create({0}).ok());
  EXPECT_FALSE(Histogram::Create({3, -1}).ok());
}

TEST(HistogramTest, FromTableCounts) {
  data::Table t(data::Schema({{"a", 3}, {"b", 2}}));
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({2, 1}).ok());
  auto h = Histogram::FromTable(t);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->At({0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(h->At({2, 1}), 1.0);
  EXPECT_DOUBLE_EQ(h->Total(), 3.0);
}

TEST(HistogramTest, FromColumn) {
  data::Table t(data::Schema({{"a", 4}}));
  ASSERT_TRUE(t.AppendRow({1}).ok());
  ASSERT_TRUE(t.AppendRow({1}).ok());
  ASSERT_TRUE(t.AppendRow({3}).ok());
  auto h = Histogram::FromColumn(t, 0);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->data()[1], 2.0);
  EXPECT_DOUBLE_EQ(h->data()[3], 1.0);
  EXPECT_FALSE(Histogram::FromColumn(t, 5).ok());
}

TEST(HistogramTest, RangeSum1D) {
  auto h = Histogram::Create({5});
  ASSERT_TRUE(h.ok());
  for (std::int64_t i = 0; i < 5; ++i) h->Set({i}, static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h->RangeSum({1}, {3}), 6.0);
  EXPECT_DOUBLE_EQ(h->RangeSum({0}, {4}), 10.0);
  EXPECT_DOUBLE_EQ(h->RangeSum({3}, {1}), 0.0);   // Empty range.
  EXPECT_DOUBLE_EQ(h->RangeSum({-5}, {99}), 10.0);  // Clamped.
}

TEST(HistogramTest, ClampNonNegative) {
  auto h = Histogram::Create({3});
  ASSERT_TRUE(h.ok());
  h->mutable_data() = {-1.0, 2.0, -0.5};
  h->ClampNonNegative();
  EXPECT_DOUBLE_EQ(h->data()[0], 0.0);
  EXPECT_DOUBLE_EQ(h->data()[1], 2.0);
  EXPECT_DOUBLE_EQ(h->data()[2], 0.0);
}

class HistogramRangeSumPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramRangeSumPropertyTest, MatchesTableBruteForce) {
  Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
  const std::size_t m = 1 + static_cast<std::size_t>(GetParam()) % 4;
  std::vector<data::Attribute> attrs;
  std::vector<std::int64_t> dims;
  for (std::size_t j = 0; j < m; ++j) {
    const std::int64_t d = 2 + static_cast<std::int64_t>(rng.NextUint64Below(9));
    attrs.push_back({"a" + std::to_string(j), d});
    dims.push_back(d);
  }
  data::Table t{data::Schema(attrs)};
  for (int r = 0; r < 300; ++r) {
    std::vector<double> row(m);
    for (std::size_t j = 0; j < m; ++j) {
      row[j] = static_cast<double>(
          rng.NextUint64Below(static_cast<std::uint64_t>(dims[j])));
    }
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  auto h = Histogram::FromTable(t);
  ASSERT_TRUE(h.ok());
  for (int q = 0; q < 50; ++q) {
    std::vector<std::int64_t> lo(m), hi(m);
    std::vector<double> dlo(m), dhi(m);
    for (std::size_t j = 0; j < m; ++j) {
      std::int64_t a = rng.NextInt64InRange(0, dims[j] - 1);
      std::int64_t b = rng.NextInt64InRange(0, dims[j] - 1);
      if (a > b) std::swap(a, b);
      lo[j] = a;
      hi[j] = b;
      dlo[j] = static_cast<double>(a);
      dhi[j] = static_cast<double>(b);
    }
    EXPECT_DOUBLE_EQ(h->RangeSum(lo, hi),
                     static_cast<double>(t.RangeCount(dlo, dhi)))
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, HistogramRangeSumPropertyTest,
                         ::testing::Range(0, 12));

TEST(SummedAreaTest, MatchesHistogram1D) {
  auto h = Histogram::Create({6});
  ASSERT_TRUE(h.ok());
  for (std::int64_t i = 0; i < 6; ++i) h->Set({i}, static_cast<double>(i));
  auto sat = SummedAreaTable::Build(*h);
  ASSERT_TRUE(sat.ok());
  EXPECT_DOUBLE_EQ(sat->RangeSum({1}, {3}), 6.0);
  EXPECT_DOUBLE_EQ(sat->RangeSum({0}, {5}), 15.0);
  EXPECT_DOUBLE_EQ(sat->RangeSum({4}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(sat->RangeSum({-4}, {100}), 15.0);  // Clamped.
}

class SummedAreaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SummedAreaPropertyTest, MatchesRangeSumExactly) {
  Rng rng(static_cast<std::uint64_t>(6000 + GetParam()));
  const std::size_t m = 1 + static_cast<std::size_t>(GetParam()) % 4;
  std::vector<std::int64_t> dims;
  for (std::size_t j = 0; j < m; ++j) {
    dims.push_back(2 + static_cast<std::int64_t>(rng.NextUint64Below(9)));
  }
  auto h = Histogram::Create(dims);
  ASSERT_TRUE(h.ok());
  for (double& v : h->mutable_data()) v = rng.NextGaussian();
  auto sat = SummedAreaTable::Build(*h);
  ASSERT_TRUE(sat.ok());
  for (int q = 0; q < 60; ++q) {
    std::vector<std::int64_t> lo(m), hi(m);
    for (std::size_t j = 0; j < m; ++j) {
      std::int64_t a = rng.NextInt64InRange(0, dims[j] - 1);
      std::int64_t b = rng.NextInt64InRange(0, dims[j] - 1);
      if (a > b) std::swap(a, b);
      lo[j] = a;
      hi[j] = b;
    }
    EXPECT_NEAR(sat->RangeSum(lo, hi), h->RangeSum(lo, hi), 1e-9)
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, SummedAreaPropertyTest,
                         ::testing::Range(0, 12));

TEST(SummedAreaTest, EmptyHistogramRejected) {
  Histogram h;
  EXPECT_FALSE(SummedAreaTable::Build(h).ok());
}

TEST(WaveletTest, ForwardInverseRoundTripPowerOfTwo) {
  const std::vector<double> x = {4, 6, 10, 12, 8, 6, 5, 5};
  const auto coeffs = ForwardHaar(x);
  ASSERT_EQ(coeffs.size(), 8u);
  const auto back = InverseHaar(coeffs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-12);
  }
}

TEST(WaveletTest, PadsToPowerOfTwo) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const auto coeffs = ForwardHaar(x);
  EXPECT_EQ(coeffs.size(), 8u);
  const auto back = InverseHaar(coeffs);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-12);
  for (std::size_t i = x.size(); i < 8; ++i) EXPECT_NEAR(back[i], 0.0, 1e-12);
}

TEST(WaveletTest, OrthonormalParseval) {
  Rng rng(29);
  std::vector<double> x(64);
  for (double& v : x) v = rng.NextGaussian();
  const auto coeffs = ForwardHaar(x);
  const double ex = std::inner_product(x.begin(), x.end(), x.begin(), 0.0);
  const double ec =
      std::inner_product(coeffs.begin(), coeffs.end(), coeffs.begin(), 0.0);
  EXPECT_NEAR(ex, ec, 1e-9);
}

TEST(WaveletTest, ScalingCoefficientIsScaledMean) {
  const std::vector<double> x(16, 3.0);
  const auto coeffs = ForwardHaar(x);
  EXPECT_NEAR(coeffs[0], 3.0 * std::sqrt(16.0), 1e-12);
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_NEAR(coeffs[i], 0.0, 1e-12);
  }
}

TEST(WaveletTest, LevelsAndCoefficientLevels) {
  EXPECT_EQ(HaarLevels(8), 3);
  EXPECT_EQ(HaarLevels(1), 0);
  EXPECT_EQ(HaarCoefficientLevel(0), 0);
  EXPECT_EQ(HaarCoefficientLevel(1), 1);
  EXPECT_EQ(HaarCoefficientLevel(2), 2);
  EXPECT_EQ(HaarCoefficientLevel(3), 2);
  EXPECT_EQ(HaarCoefficientLevel(4), 3);
  EXPECT_EQ(HaarCoefficientLevel(7), 3);
}

TEST(WaveletTest, MultiDimRoundTrip) {
  Rng rng(31);
  auto h = Histogram::Create({5, 7, 3});
  ASSERT_TRUE(h.ok());
  for (double& v : h->mutable_data()) v = rng.NextDouble() * 10.0;
  auto coeffs = ForwardHaarMultiDim(*h);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_EQ(coeffs->dims()[0], 8);
  EXPECT_EQ(coeffs->dims()[1], 8);
  EXPECT_EQ(coeffs->dims()[2], 4);
  auto back = InverseHaarMultiDim(*coeffs, h->dims());
  ASSERT_TRUE(back.ok());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < h->data().size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(h->data()[i] - back->data()[i]));
  }
  EXPECT_LT(max_diff, 1e-10);
}

TEST(WaveletTest, SelectiveAxesRoundTrip) {
  Rng rng(33);
  auto h = Histogram::Create({6, 2, 9});
  ASSERT_TRUE(h.ok());
  for (double& v : h->mutable_data()) v = rng.NextGaussian();
  const std::vector<bool> mask = {true, false, true};
  auto coeffs = ForwardHaarMultiDim(*h, mask);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_EQ(coeffs->dims()[0], 8);  // Padded.
  EXPECT_EQ(coeffs->dims()[1], 2);  // Untouched (identity axis).
  EXPECT_EQ(coeffs->dims()[2], 16);
  auto back = InverseHaarMultiDim(*coeffs, h->dims(), mask);
  ASSERT_TRUE(back.ok());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < h->data().size(); ++i) {
    max_diff =
        std::max(max_diff, std::fabs(h->data()[i] - back->data()[i]));
  }
  EXPECT_LT(max_diff, 1e-10);
}

TEST(WaveletTest, SelectiveAxesMaskValidation) {
  auto h = Histogram::Create({4, 4});
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(ForwardHaarMultiDim(*h, {true}).ok());
  EXPECT_FALSE(InverseHaarMultiDim(*h, {4, 4}, {true}).ok());
}

TEST(DctTest, RoundTrip) {
  Rng rng(37);
  for (std::size_t n : {1u, 2u, 5u, 16u, 97u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.NextGaussian();
    const auto back = InverseDct(ForwardDct(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

TEST(DctTest, OrthonormalParseval) {
  Rng rng(41);
  std::vector<double> x(50);
  for (double& v : x) v = rng.NextGaussian();
  const auto c = ForwardDct(x);
  const double ex = std::inner_product(x.begin(), x.end(), x.begin(), 0.0);
  const double ec = std::inner_product(c.begin(), c.end(), c.begin(), 0.0);
  EXPECT_NEAR(ex, ec, 1e-9);
}

TEST(DctTest, ConstantSignalCompactsToDc) {
  const std::vector<double> x(10, 2.0);
  const auto c = ForwardDct(x);
  EXPECT_NEAR(c[0], 2.0 * std::sqrt(10.0), 1e-12);
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_NEAR(c[i], 0.0, 1e-12);
}

TEST(DctTest, Linearity) {
  Rng rng(43);
  std::vector<double> x(40), y(40), z(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x[i] = rng.NextGaussian();
    y[i] = rng.NextGaussian();
    z[i] = 2.0 * x[i] - 3.0 * y[i];
  }
  const auto cx = ForwardDct(x);
  const auto cy = ForwardDct(y);
  const auto cz = ForwardDct(z);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(cz[i], 2.0 * cx[i] - 3.0 * cy[i], 1e-10);
  }
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

TEST(DctTest, MatchesReference) {
  // Powers of two take the radix-2 path and every other length Bluestein's;
  // 999-1248 spans the domains of a wide release.
  Rng rng(53);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 16u, 97u, 128u, 999u, 1000u,
                        1024u, 1123u, 1248u, 4096u, 4099u}) {
    const double nd = static_cast<double>(n);
    std::vector<double> counts(n), gaussian(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double z = (static_cast<double>(i) - 0.4 * nd) / (0.2 * nd + 1.0);
      counts[i] =
          std::floor(1000.0 * std::exp(-0.5 * z * z) * rng.NextDouble());
      gaussian[i] = rng.NextGaussian();
    }
    for (const std::vector<double>* x : {&counts, &gaussian}) {
      const double tol =
          1e-12 * std::sqrt(std::inner_product(x->begin(), x->end(),
                                               x->begin(), 0.0));
      EXPECT_LE(MaxAbsDiff(ForwardDct(*x), reference::ForwardDct(*x)), tol)
          << "n=" << n;
      EXPECT_LE(MaxAbsDiff(InverseDct(*x), reference::InverseDct(*x)), tol)
          << "n=" << n;
    }
  }
}

TEST(DctTest, LargePrimeRoundTrip) {
  // 65,537 is prime, so both directions take Bluestein's path with M = 2^18.
  const std::size_t n = 65537;
  Rng rng(59);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();
  const auto c = ForwardDct(x);
  double max_abs = 0.0;
  for (double v : x) max_abs = std::max(max_abs, std::fabs(v));
  EXPECT_LE(MaxAbsDiff(InverseDct(c), x), 1e-12 * max_abs);
  const double ex = std::inner_product(x.begin(), x.end(), x.begin(), 0.0);
  const double ec = std::inner_product(c.begin(), c.end(), c.begin(), 0.0);
  EXPECT_LE(std::fabs(ec - ex), 1e-12 * ex);
}

TEST(WaveletTest, NoiseInCoefficientDomainMapsToBoundedCellNoise) {
  // Orthonormality: unit-variance noise on every coefficient inverts to
  // unit-variance noise on every cell (Parseval both ways) — the property
  // Privelet's calibration relies on.
  Rng rng(47);
  const std::size_t n = 256;
  std::vector<double> coeff_noise(n);
  for (double& v : coeff_noise) v = rng.NextGaussian();
  const auto cell_noise = InverseHaar(coeff_noise);
  double energy_in = 0.0, energy_out = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    energy_in += coeff_noise[i] * coeff_noise[i];
    energy_out += cell_noise[i] * cell_noise[i];
  }
  EXPECT_NEAR(energy_in, energy_out, 1e-8);
}

TEST(DctTest, SmoothSignalEnergyCompaction) {
  // A smooth ramp should concentrate nearly all energy in few coefficients.
  std::vector<double> x(128);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i);
  }
  const auto c = ForwardDct(x);
  const double total =
      std::inner_product(c.begin(), c.end(), c.begin(), 0.0);
  double head = 0.0;
  for (std::size_t i = 0; i < 8; ++i) head += c[i] * c[i];
  EXPECT_GT(head / total, 0.99);
}

}  // namespace
}  // namespace dpcopula::hist
