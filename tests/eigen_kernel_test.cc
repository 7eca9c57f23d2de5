// Equivalence and determinism suite for the tridiagonal-QL eigensolver:
// eigenvalue agreement with the Jacobi oracle in
// tests/reference/eigen_reference.h across dimensions up to m = 200,
// bit-identical decompositions across 1/2/4/8 threads, the
// `linalg.eigen.converge` failpoint semantics, Householder stage
// invariants, and the high-dimension repair property on tau-noised
// matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/packed_symmetric.h"
#include "linalg/psd_repair.h"
#include "reference/eigen_reference.h"

namespace dpcopula::linalg {
namespace {

using failpoint::Registry;

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

// Emulates the estimators' input to PSD repair: a correlation matrix whose
// off-diagonal entries took independent noise (as the noisy sin-transformed
// taus do) and a [-1, 1] clamp. At m >= 100 this is reliably indefinite.
Matrix TauNoisedMatrix(std::size_t m, double noise, Rng* rng) {
  Matrix p = RandomCorrelation(m, rng);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double v =
          std::clamp(p(i, j) + noise * rng->NextGaussian(), -1.0, 1.0);
      p(i, j) = v;
      p(j, i) = v;
    }
  }
  return p;
}

EigenSymOptions ThreadOptions(int num_threads) {
  EigenSymOptions options;
  options.num_threads = num_threads;
  return options;
}

double MaxReconstructError(const Matrix& a, const EigenDecomposition& ed) {
  return a.MaxAbsDiff(EigenReconstruct(ed));
}

// ---------------------------------------------------------------------------
// Old-vs-new agreement.

TEST(EigenKernelAgreement, EigenvaluesAgreeAcrossKernels) {
  Rng rng(0xe16e5001);
  for (const std::size_t m : {2u, 8u, 32u, 100u}) {
    const Matrix a = RandomCorrelation(m, &rng);
    auto ql = EigenSym(a);
    auto jacobi = reference::EigenSymJacobi(a);
    ASSERT_TRUE(ql.ok()) << "m=" << m << ": " << ql.status().message();
    ASSERT_TRUE(jacobi.ok()) << "m=" << m << ": "
                             << jacobi.status().message();
    ASSERT_EQ(ql->values.size(), m);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_NEAR(ql->values[k], jacobi->values[k], 1e-8)
          << "m=" << m << " k=" << k;
    }
    EXPECT_LT(MaxReconstructError(a, *ql), 1e-9) << "m=" << m;
  }
}

TEST(EigenKernelAgreement, QlVectorsAreOrthonormal) {
  Rng rng(0xe16e5002);
  const Matrix a = TauNoisedMatrix(64, 0.3, &rng);
  auto ql = EigenSym(a);
  ASSERT_TRUE(ql.ok());
  const Matrix vtv = ql->vectors.Transpose() * ql->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(a.rows())), 1e-11);
}

TEST(EigenKernelAgreement, IndefiniteInputAgreesIncludingNegativeTail) {
  Rng rng(0xe16e5003);
  const Matrix a = TauNoisedMatrix(48, 0.5, &rng);
  auto ql = EigenSym(a);
  auto jacobi = reference::EigenSymJacobi(a);
  ASSERT_TRUE(ql.ok());
  ASSERT_TRUE(jacobi.ok());
  EXPECT_LT(ql->values.back(), 0.0);  // The input really is indefinite.
  for (std::size_t k = 0; k < ql->values.size(); ++k) {
    EXPECT_NEAR(ql->values[k], jacobi->values[k], 1e-8) << "k=" << k;
  }
  // Descending order, like the oracle.
  for (std::size_t k = 1; k < ql->values.size(); ++k) {
    EXPECT_GE(ql->values[k - 1], ql->values[k]);
  }
}

// ---------------------------------------------------------------------------
// High-dimension property: tau-noised matrices at m = 100 / 200 repair into
// valid correlation matrices and the solver agrees with the oracle on the
// spectrum.

TEST(EigenKernelHighDim, TauNoisedRepairProperty) {
  Rng rng(0xe16e5004);
  for (const std::size_t m : {100u, 200u}) {
    const Matrix p = TauNoisedMatrix(m, 0.4, &rng);
    EXPECT_FALSE(IsPositiveDefinite(p)) << "m=" << m;

    // Agreement with the oracle on the raw noised matrix.
    auto ql = EigenSym(p);
    auto jacobi = reference::EigenSymJacobi(p);
    ASSERT_TRUE(ql.ok()) << "m=" << m << ": " << ql.status().message();
    ASSERT_TRUE(jacobi.ok()) << "m=" << m << ": "
                             << jacobi.status().message();
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_NEAR(ql->values[k], jacobi->values[k], 1e-8)
          << "m=" << m << " k=" << k;
    }

    // Repair succeeds and yields a valid correlation
    // matrix: positive definite, unit diagonal, entries in [-1, 1].
    PsdRepairOptions repair_options;
    repair_options.num_threads = 4;
    auto repaired = EnsureCorrelationMatrix(p, repair_options);
    ASSERT_TRUE(repaired.ok()) << "m=" << m << ": "
                               << repaired.status().message();
    EXPECT_TRUE(IsPositiveDefinite(*repaired)) << "m=" << m;
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_DOUBLE_EQ((*repaired)(i, i), 1.0);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_LE(std::fabs((*repaired)(i, j)), 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count determinism: the Householder shard decomposition must never
// change a released bit.

TEST(EigenKernelDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng rng(0xe16e5005);
  const Matrix a = TauNoisedMatrix(150, 0.3, &rng);
  auto base = EigenSym(a, ThreadOptions(1));
  ASSERT_TRUE(base.ok());
  for (const int threads : {2, 4, 8}) {
    auto run = EigenSym(a, ThreadOptions(threads));
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    ASSERT_EQ(run->values.size(), base->values.size());
    for (std::size_t k = 0; k < base->values.size(); ++k) {
      EXPECT_EQ(std::memcmp(&run->values[k], &base->values[k],
                            sizeof(double)),
                0)
          << "threads=" << threads << " k=" << k;
    }
    EXPECT_EQ(base->vectors.MaxAbsDiff(run->vectors), 0.0)
        << "threads=" << threads;
  }
}

TEST(EigenKernelDeterminism, RepairBitIdenticalAcrossThreadCounts) {
  Rng rng(0xe16e5006);
  const Matrix p = TauNoisedMatrix(120, 0.4, &rng);
  PsdRepairOptions options;
  options.num_threads = 1;
  auto base = EnsureCorrelationMatrix(p, options);
  ASSERT_TRUE(base.ok());
  for (const int threads : {2, 4, 8}) {
    options.num_threads = threads;
    auto run = EnsureCorrelationMatrix(p, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(base->MaxAbsDiff(*run), 0.0) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Householder stage invariants (stage 1 in isolation).

TEST(HouseholderStage, ReconstructsInputFromTridiagonalForm) {
  Rng rng(0xe16e5007);
  const std::size_t m = 60;
  const Matrix a = TauNoisedMatrix(m, 0.3, &rng);
  Matrix q = a;
  std::vector<double> d;
  std::vector<double> e;
  internal::HouseholderTridiagonalize(&q, &d, &e, /*num_threads=*/1);
  // Q orthonormal.
  EXPECT_LT((q.Transpose() * q).MaxAbsDiff(Matrix::Identity(m)), 1e-12);
  // Q T Q^T == A for the tridiagonal T assembled from (d, e).
  Matrix t(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    t(i, i) = d[i];
    if (i > 0) {
      t(i, i - 1) = e[i];
      t(i - 1, i) = e[i];
    }
  }
  const Matrix reconstructed = q * t * q.Transpose();
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-12);
}

// ---------------------------------------------------------------------------
// Failure semantics: the injected fault and a real budget exhaustion both
// surface as NumericalError, with a data-independent message.

TEST(EigenKernelFailpoints, InjectedConvergeFaultIsNumericalError) {
  Rng rng(0xe16e5008);
  const Matrix a = RandomCorrelation(12, &rng);
  ASSERT_TRUE(Registry::Global().Arm("linalg.eigen.converge", "always").ok());
  auto result = EigenSym(a);
  Registry::Global().DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(result.status().message().find("linalg.eigen.converge"),
            std::string::npos);
}

TEST(EigenKernelFailpoints, QlBudgetExhaustionIsDataIndependent) {
  Rng rng(0xe16e5009);
  EigenSymOptions options;
  options.max_ql_iterations = 0;
  std::string first_message;
  for (const double noise : {0.3, 0.7}) {
    const Matrix a = TauNoisedMatrix(24, noise, &rng);
    auto result = EigenSym(a, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
    if (first_message.empty()) {
      first_message = result.status().message();
      EXPECT_NE(first_message.find("did not converge"), std::string::npos);
    } else {
      // Different data, same message: nothing value-derived leaks.
      EXPECT_EQ(result.status().message(), first_message);
    }
  }
}

TEST(EigenKernelFailpoints, RepairShrinkageRetryCoversQlKernel) {
  // One injected non-convergence: the repair must retry on the shrunk
  // matrix and succeed.
  Rng rng(0xe16e500a);
  const Matrix p = TauNoisedMatrix(32, 0.5, &rng);
  ASSERT_TRUE(Registry::Global().Arm("linalg.eigen.converge", "once").ok());
  auto repaired = RepairToCorrelation(p);
  Registry::Global().DisarmAll();
  ASSERT_TRUE(repaired.ok()) << repaired.status().message();
  EXPECT_TRUE(IsPositiveDefinite(*repaired));
}

}  // namespace
}  // namespace dpcopula::linalg
