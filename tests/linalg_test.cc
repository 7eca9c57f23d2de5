#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/packed_symmetric.h"
#include "linalg/psd_repair.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "reference/eigen_reference.h"

namespace dpcopula::linalg {
namespace {

Matrix RandomCorrelation(std::size_t m, Rng* rng) {
  // A^T A normalized to unit diagonal is a valid correlation matrix.
  Matrix a(m + 2, m);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < m; ++j) a(i, j) = rng->NextGaussian();
  Matrix g = a.Transpose() * a;
  Matrix corr(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      corr(i, j) = g(i, j) / std::sqrt(g(i, i) * g(j, j));
  return corr;
}

TEST(MatrixTest, IdentityAndAccessors) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id.rows(), 3u);
  EXPECT_EQ(id.cols(), 3u);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, FromRowsAndTranspose) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{4, 3}, {2, 1}});
  EXPECT_DOUBLE_EQ((a + b)(0, 0), 5.0);
  EXPECT_DOUBLE_EQ((a - b)(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.Scaled(2.0)(1, 0), 6.0);
}

TEST(MatrixTest, ApplyVector) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const std::vector<double> y = a.Apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, SymmetryCheckAndSymmetrize) {
  Matrix a = Matrix::FromRows({{1, 2}, {2.5, 1}});
  EXPECT_FALSE(a.IsSymmetric(1e-9));
  Symmetrize(&a);
  EXPECT_TRUE(a.IsSymmetric(1e-12));
  EXPECT_DOUBLE_EQ(a(0, 1), 2.25);
}

TEST(CholeskyTest, KnownDecomposition) {
  // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR((*l)(0, 1), 0.0, 1e-12);
}

TEST(CholeskyTest, ReconstructsInput) {
  Rng rng(31);
  for (std::size_t m : {2u, 4u, 8u, 16u}) {
    Matrix corr = RandomCorrelation(m, &rng);
    auto l = CholeskyDecompose(corr);
    ASSERT_TRUE(l.ok());
    Matrix rebuilt = (*l) * l->Transpose();
    EXPECT_LT(rebuilt.MaxAbsDiff(corr), 1e-10) << "m=" << m;
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}});  // Eigenvalues 3, -1.
  EXPECT_FALSE(CholeskyDecompose(a).ok());
  EXPECT_FALSE(IsPositiveDefinite(a));
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_EQ(CholeskyDecompose(a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, SolveRoundTrip) {
  Rng rng(37);
  Matrix corr = RandomCorrelation(5, &rng);
  auto l = CholeskyDecompose(corr);
  ASSERT_TRUE(l.ok());
  std::vector<double> x_true = {1.0, -2.0, 0.5, 3.0, -1.0};
  std::vector<double> b = corr.Apply(x_true);
  auto x = CholeskySolve(*l, b);
  ASSERT_TRUE(x.ok());
  for (std::size_t i = 0; i < x_true.size(); ++i) {
    EXPECT_NEAR((*x)[i], x_true[i], 1e-9);
  }
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng rng(41);
  Matrix corr = RandomCorrelation(6, &rng);
  auto l = CholeskyDecompose(corr);
  ASSERT_TRUE(l.ok());
  auto inv = CholeskyInverse(*l);
  ASSERT_TRUE(inv.ok());
  Matrix prod = corr * (*inv);
  EXPECT_LT(prod.MaxAbsDiff(Matrix::Identity(6)), 1e-9);
}

TEST(CholeskyTest, LogDetMatchesDiagonalProduct) {
  Matrix a = Matrix::FromRows({{4, 0}, {0, 9}});
  auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(CholeskyLogDet(*l), std::log(36.0), 1e-12);
}

TEST(EigenSymTest, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  auto ed = EigenSym(a);
  ASSERT_TRUE(ed.ok());
  EXPECT_NEAR(ed->values[0], 3.0, 1e-12);
  EXPECT_NEAR(ed->values[1], 1.0, 1e-12);
}

TEST(EigenSymTest, KnownEigenvalues) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  auto ed = EigenSym(a);
  ASSERT_TRUE(ed.ok());
  EXPECT_NEAR(ed->values[0], 3.0, 1e-10);
  EXPECT_NEAR(ed->values[1], 1.0, 1e-10);
}

TEST(EigenSymTest, ReconstructionAndOrthogonality) {
  Rng rng(43);
  Matrix corr = RandomCorrelation(8, &rng);
  auto ed = EigenSym(corr);
  ASSERT_TRUE(ed.ok());
  EXPECT_LT(EigenReconstruct(*ed).MaxAbsDiff(corr), 1e-9);
  Matrix vtv = ed->vectors.Transpose() * ed->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(8)), 1e-9);
}

TEST(EigenSymTest, ValuesSortedDescending) {
  Rng rng(47);
  Matrix corr = RandomCorrelation(10, &rng);
  auto ed = EigenSym(corr);
  ASSERT_TRUE(ed.ok());
  for (std::size_t i = 1; i < ed->values.size(); ++i) {
    EXPECT_GE(ed->values[i - 1], ed->values[i]);
  }
}

TEST(EigenSymTest, RejectsAsymmetric) {
  Matrix a = Matrix::FromRows({{1, 2}, {0, 1}});
  EXPECT_FALSE(EigenSym(a).ok());
}

TEST(PsdRepairTest, IndefiniteBecomesValidCorrelation) {
  // Strongly inconsistent correlations: not PSD.
  Matrix a = Matrix::FromRows({
      {1.0, 0.9, -0.9},
      {0.9, 1.0, 0.9},
      {-0.9, 0.9, 1.0},
  });
  ASSERT_FALSE(IsPositiveDefinite(a));
  auto repaired = RepairToCorrelation(a);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(IsPositiveDefinite(*repaired));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR((*repaired)(i, i), 1.0, 1e-12);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_LE(std::fabs((*repaired)(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(PsdRepairTest, AlreadyValidPassesThrough) {
  Matrix a = Matrix::FromRows({{1.0, 0.5}, {0.5, 1.0}});
  auto out = EnsureCorrelationMatrix(a);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->MaxAbsDiff(a), 1e-12);
}

TEST(PsdRepairTest, RepairedStaysCloseToInput) {
  // Mildly indefinite: repair should perturb entries only modestly.
  Matrix a = Matrix::FromRows({
      {1.0, 0.7, 0.7},
      {0.7, 1.0, -0.3},
      {0.7, -0.3, 1.0},
  });
  auto out = EnsureCorrelationMatrix(a);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->MaxAbsDiff(a), 0.35);
}

TEST(PsdRepairTest, AbsVariantAlsoValid) {
  Matrix a = Matrix::FromRows({
      {1.0, 0.9, -0.9},
      {0.9, 1.0, 0.9},
      {-0.9, 0.9, 1.0},
  });
  PsdRepairOptions opts;
  opts.use_abs = true;
  auto out = RepairToCorrelation(a, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(IsPositiveDefinite(*out));
}

class CholeskyRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomTest, SolveResidualsNearZero) {
  Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  const std::size_t m = 2 + static_cast<std::size_t>(GetParam()) % 12;
  Matrix corr = RandomCorrelation(m, &rng);
  auto l = CholeskyDecompose(corr);
  ASSERT_TRUE(l.ok());
  std::vector<double> b(m);
  for (double& v : b) v = rng.NextGaussian();
  auto x = CholeskySolve(*l, b);
  ASSERT_TRUE(x.ok());
  const std::vector<double> back = corr.Apply(*x);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(back[i], b[i], 1e-8) << "m=" << m << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRandomTest, ::testing::Range(0, 12));

TEST(CholeskyTest, NearSingularStillFactorizes) {
  // Correlation 1 - 1e-8: barely PD; the factorization must not blow up.
  Matrix a = Matrix::FromRows({{1.0, 1.0 - 1e-8}, {1.0 - 1e-8, 1.0}});
  auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  Matrix rebuilt = (*l) * l->Transpose();
  EXPECT_LT(rebuilt.MaxAbsDiff(a), 1e-12);
}

TEST(CholeskyTest, ExactlySingularRejected) {
  Matrix a = Matrix::FromRows({{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_FALSE(CholeskyDecompose(a).ok());
}

class EigenSymRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenSymRandomTest, TraceAndFrobeniusInvariants) {
  Rng rng(static_cast<std::uint64_t>(950 + GetParam()));
  const std::size_t m = 2 + static_cast<std::size_t>(GetParam()) % 14;
  Matrix corr = RandomCorrelation(m, &rng);
  auto ed = EigenSym(corr);
  ASSERT_TRUE(ed.ok());
  // Trace = sum of eigenvalues = m (unit diagonal).
  double sum = 0.0, sum_sq = 0.0;
  for (double v : ed->values) {
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum, static_cast<double>(m), 1e-9);
  // Frobenius norm^2 = sum of squared eigenvalues.
  double frob = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) frob += corr(i, j) * corr(i, j);
  }
  EXPECT_NEAR(sum_sq, frob, 1e-8);
  // A correlation matrix is PSD: all eigenvalues >= -tolerance.
  EXPECT_GT(ed->values.back(), -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandomTest, ::testing::Range(0, 10));

TEST(EigenSymTest, RankOneMatrix) {
  // vv^T with v = (1,2,3): eigenvalues {14, 0, 0}.
  Matrix a = Matrix::FromRows({{1, 2, 3}, {2, 4, 6}, {3, 6, 9}});
  auto ed = EigenSym(a);
  ASSERT_TRUE(ed.ok());
  EXPECT_NEAR(ed->values[0], 14.0, 1e-9);
  EXPECT_NEAR(ed->values[1], 0.0, 1e-9);
  EXPECT_NEAR(ed->values[2], 0.0, 1e-9);
}

class PsdRepairRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PsdRepairRandomTest, RandomNoisyMatricesAlwaysRepairable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 6;
  Matrix a(m, m);
  // Random symmetric matrix with entries in [-1, 1] and unit diagonal —
  // exactly what a very noisy Kendall estimate looks like.
  for (std::size_t i = 0; i < m; ++i) {
    a(i, i) = 1.0;
    for (std::size_t j = i + 1; j < m; ++j) {
      const double v = 2.0 * rng.NextDouble() - 1.0;
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  auto out = EnsureCorrelationMatrix(a);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(IsPositiveDefinite(*out));
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR((*out)(i, i), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsdRepairRandomTest,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// PR 9 bugfix regressions.

// The Jacobi solver's convergence test used to compare the off-diagonal
// norm to an *absolute* 1e-13: for badly scaled input the round-off floor
// sits at eps * ||A||_F and the absolute target is unreachable, so the
// solver burned the whole sweep budget and failed spuriously. The tolerance
// is now relative to ||A||_F; the solver lives on as the test oracle.
TEST(EigenSymTest, RelativeToleranceConvergesAtM200LargeScale) {
  Rng rng(0x5ca1ab1e);
  const std::size_t m = 200;
  const Matrix scaled = RandomCorrelation(m, &rng).Scaled(1e8);
  auto ed = reference::EigenSymJacobi(scaled, /*max_sweeps=*/64);
  ASSERT_TRUE(ed.ok()) << ed.status().message();
  // Reconstruction error small relative to the 1e8 scale.
  EXPECT_LT(EigenReconstruct(*ed).MaxAbsDiff(scaled), 1e-4);
  // The production kernel handles the same input.
  auto ql = EigenSym(scaled);
  ASSERT_TRUE(ql.ok()) << ql.status().message();
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(ql->values[k], ed->values[k], 1e-4) << "k=" << k;
  }
}

// CholeskySolve/CholeskyInverse used to divide by l(i, i) unguarded: a bad
// factor silently yielded inf/NaN instead of a data-independent error.
TEST(CholeskyTest, SolveRejectsNonSquareFactor) {
  Matrix l(2, 3);
  auto x = CholeskySolve(l, {1.0, 2.0});
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, SolveRejectsZeroPivot) {
  Matrix l = Matrix::FromRows({{1.0, 0.0}, {0.5, 0.0}});
  auto x = CholeskySolve(l, {1.0, 2.0});
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
  // Data-independent message: the pivot index is structural, the value
  // never appears.
  EXPECT_NE(x.status().message().find("pivot (index 1)"), std::string::npos);
  EXPECT_EQ(x.status().message().find("0.5"), std::string::npos);
}

TEST(CholeskyTest, SolveRejectsNonFinitePivot) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    Matrix l = Matrix::FromRows({{bad, 0.0}, {0.5, 1.0}});
    auto x = CholeskySolve(l, {1.0, 2.0});
    ASSERT_FALSE(x.ok());
    EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
  }
}

TEST(CholeskyTest, InverseRejectsNonSquareAndBadPivot) {
  Matrix rect(2, 3);
  EXPECT_EQ(CholeskyInverse(rect).status().code(),
            StatusCode::kInvalidArgument);
  Matrix l = Matrix::FromRows({{1.0, 0.0}, {0.5, 0.0}});
  auto inv = CholeskyInverse(l);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kNumericalError);
}

// NormalizeToCorrelation used to map a non-positive reconstructed diagonal
// to divisor 1.0, leaving that row/column unscaled so the [-1, 1] clamp
// silently distorted correlations. It now fails closed (counted in
// linalg.psd_normalize_failures).
TEST(PsdRepairTest, NonPositiveDiagonalAfterLiftFailsClosed) {
  obs::ObsConfig config;
  config.metrics = true;
  obs::SetObsConfig(config);
  static obs::Counter* const failures =
      obs::MetricsRegistry::Global().GetCounter(
          "linalg.psd_normalize_failures");
  // diag(1, 1, -1) with the negative eigenvalue lifted to exactly 0
  // reconstructs to diag(1, 1, 0): a structurally degenerate row the old
  // normalization silently "fixed" into an identity block.
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(2, 2) = -1.0;
  PsdRepairOptions options;
  options.min_eigenvalue = 0.0;
  const std::int64_t before = failures->Value();
  auto repaired = RepairToCorrelation(a, options);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(repaired.status().message().find("non-positive diagonal"),
            std::string::npos);
  if (DPCOPULA_OBS_ENABLED != 0) {
    EXPECT_EQ(failures->Value(), before + 1);
  }
  obs::SetObsConfig(obs::ObsConfig{});
}

// With the default min_eigenvalue the same input must still repair fine —
// the fail-closed path is strictly a breakdown detector.
TEST(PsdRepairTest, DefaultLiftStillRepairsNegativeDiagonal) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(2, 2) = -1.0;
  auto repaired = RepairToCorrelation(a);
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  EXPECT_TRUE(IsPositiveDefinite(*repaired));
}

// ---------------------------------------------------------------------------
// PackedSymmetric: the estimators' accumulation layout.

TEST(PackedSymmetricTest, RoundTripsAndMirrorsReads) {
  Rng rng(77);
  const Matrix a = RandomCorrelation(7, &rng);
  PackedSymmetric packed = PackedSymmetric::FromLowerTriangleOf(a);
  EXPECT_EQ(packed.dim(), 7u);
  EXPECT_EQ(packed.data().size(), 7u * 8u / 2u);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(packed(i, j), a(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(packed.ToMatrix().MaxAbsDiff(a), 0.0);
}

TEST(PackedSymmetricTest, AddAndScaleMatchDense) {
  Rng rng(78);
  const Matrix a = RandomCorrelation(6, &rng);
  const Matrix b = RandomCorrelation(6, &rng);
  PackedSymmetric acc = PackedSymmetric::FromLowerTriangleOf(a);
  acc.AddInPlace(PackedSymmetric::FromLowerTriangleOf(b));
  acc.ScaleInPlace(0.5);
  Matrix dense = a;
  dense.AddInPlace(b);
  dense = dense.Scaled(0.5);
  EXPECT_EQ(acc.ToMatrix().MaxAbsDiff(dense), 0.0);
}

TEST(PackedSymmetricTest, AtWritesLowerTriangle) {
  PackedSymmetric p(3);
  p.at(0, 0) = 1.0;
  p.at(1, 1) = 1.0;
  p.at(2, 2) = 1.0;
  p.at(2, 0) = 0.25;
  EXPECT_EQ(p(0, 2), 0.25);
  EXPECT_EQ(p(2, 0), 0.25);
  EXPECT_EQ(p(1, 0), 0.0);
}

}  // namespace
}  // namespace dpcopula::linalg
