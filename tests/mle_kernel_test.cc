// Equivalence and determinism suite for the batched MLE partition-fit
// kernel: released matrices bit-identical to the per-partition oracle in
// tests/reference/mle_reference.h across data shapes, and across 1/2/4/8
// threads; exact scalar-vs-AVX2 agreement of the batch Phi/Phi^-1 kernels
// over (0, 1) including denormal-adjacent inputs; workspace-reuse hygiene;
// and survivor averaging under injected partition faults.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpuinfo.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "copula/gaussian_copula.h"
#include "copula/mle_estimator.h"
#include "copula/pseudo_obs.h"
#include "data/generator.h"
#include "linalg/matrix.h"
#include "reference/mle_reference.h"
#include "stats/empirical_cdf.h"
#include "stats/normal.h"

namespace dpcopula {
namespace {

using copula::EstimateMleCorrelation;
using copula::MleEstimatorOptions;
using copula::NormalScoresCorrelationTiledPacked;
using failpoint::Registry;
using reference::NormalScoresCorrelation;

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

// Bitwise equality: NaN == NaN, and +0 is distinguished from -0. This is
// the contract the dispatcher promises — flipping SIMD can never change a
// released byte.
void ExpectBitsEqual(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "i=" << i << " a=" << a[i] << " b=" << b[i];
  }
}

// ---------------------------------------------------------------------------
// Scalar-vs-AVX2 batch kernel agreement.

std::vector<double> ProbeProbabilities() {
  std::vector<double> p;
  // Dense uniform grid through both Acklam branches.
  for (int i = 1; i < 4000; ++i) p.push_back(i / 4000.0);
  // The central/tail branch boundary from both sides.
  const double p_low = 0.02425;
  for (const double d : {1e-18, 1e-12, 1e-9}) {
    p.push_back(p_low - d);
    p.push_back(p_low + d);
    p.push_back(1.0 - p_low - d);
    p.push_back(1.0 - p_low + d);
  }
  // Extreme tails, denormal-adjacent and denormal inputs.
  p.push_back(std::numeric_limits<double>::denorm_min());
  p.push_back(std::numeric_limits<double>::min());
  p.push_back(2.0 * std::numeric_limits<double>::min());
  p.push_back(1e-300);
  p.push_back(1e-100);
  p.push_back(1e-16);
  p.push_back(1.0 - 1e-16);
  p.push_back(std::nextafter(0.0, 1.0));
  p.push_back(std::nextafter(1.0, 0.0));
  // Boundary and out-of-domain values: +/-inf and NaN must agree too.
  p.push_back(0.0);
  p.push_back(1.0);
  p.push_back(-0.25);
  p.push_back(1.25);
  p.push_back(std::nan(""));
  // Random fill so lane groups mix branches in irregular patterns.
  Rng rng(424242);
  for (int i = 0; i < 5000; ++i) p.push_back(rng.NextDouble());
  return p;
}

// The bitwise tests below compare scalar with scalar unless the AVX2 unit
// is compiled and dispatched, so on a CPU that reports AVX2 it must be both.
TEST(NormalBatchKernelTest, Avx2KernelsActiveOnAvx2Cpu) {
  if (!common::CpuSupportsAvx2()) {
    GTEST_SKIP() << "the CPU does not report AVX2";
  }
  EXPECT_TRUE(stats::NormalBatchAvx2Compiled());
  EXPECT_TRUE(stats::NormalBatchAvx2Active());
}

TEST(NormalBatchKernelTest, InverseCdfScalarMatchesAvx2Bitwise) {
  const std::vector<double> p = ProbeProbabilities();
  std::vector<double> scalar(p.size()), simd(p.size()), dispatched(p.size());
  stats::internal::NormalInverseCdfBatchScalar(p.data(), scalar.data(),
                                               p.size());
  stats::internal::NormalInverseCdfBatchAvx2(p.data(), simd.data(), p.size());
  stats::NormalInverseCdfBatch(p.data(), dispatched.data(), p.size());
  // The scalar batch loop must equal the plain scalar function...
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double ref = stats::NormalInverseCdf(p[i]);
    EXPECT_EQ(std::memcmp(&scalar[i], &ref, sizeof(double)), 0) << p[i];
  }
  // ...and the AVX2 kernel (a scalar forward when not compiled) and the
  // runtime dispatcher must match it bit for bit.
  ExpectBitsEqual(scalar, simd);
  ExpectBitsEqual(scalar, dispatched);
}

TEST(NormalBatchKernelTest, RaggedLengthsAndAliasing) {
  // Tail handling: every length mod 4, and in == out aliasing.
  Rng rng(5);
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<double> p(n), z(n);
    for (auto& v : p) v = rng.NextDouble();
    std::vector<double> in_place = p;
    stats::NormalInverseCdfBatch(p.data(), z.data(), n);
    stats::NormalInverseCdfBatch(in_place.data(), in_place.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(z[i], stats::NormalInverseCdf(p[i]));
      EXPECT_EQ(in_place[i], z[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked correlation kernel.

TEST(TiledCorrelationTest, MatchesReferenceBitwise) {
  Rng rng(303);
  // Row counts straddling the 256-row tile boundary, including non-multiple
  // tails and an n smaller than one tile.
  for (const std::size_t n : {2u, 100u, 256u, 257u, 1000u, 4096u}) {
    for (const std::size_t m : {2u, 3u, 7u}) {
      std::vector<std::vector<double>> scores(m, std::vector<double>(n));
      for (auto& col : scores) {
        for (auto& v : col) v = rng.NextGaussian();
      }
      std::vector<const double*> ptrs(m);
      for (std::size_t j = 0; j < m; ++j) ptrs[j] = scores[j].data();
      auto ref = NormalScoresCorrelation(scores);
      auto tiled = NormalScoresCorrelationTiledPacked(ptrs.data(), m, n);
      ASSERT_TRUE(ref.ok());
      ASSERT_TRUE(tiled.ok());
      ExpectMatricesIdentical(*ref, tiled->ToMatrix());
    }
  }
}

TEST(TiledCorrelationTest, PackedOutputMatchesDenseBitwise) {
  // The packed output feeds the MLE partition average; every stored
  // coefficient must carry the exact bits of the dense column-vector
  // oracle.
  Rng rng(304);
  for (const std::size_t n : {2u, 255u, 1000u}) {
    for (const std::size_t m : {2u, 5u, 9u}) {
      std::vector<std::vector<double>> scores(m, std::vector<double>(n));
      for (auto& col : scores) {
        for (auto& v : col) v = rng.NextGaussian();
      }
      std::vector<const double*> ptrs(m);
      for (std::size_t j = 0; j < m; ++j) ptrs[j] = scores[j].data();
      auto dense = NormalScoresCorrelation(scores);
      auto packed = NormalScoresCorrelationTiledPacked(ptrs.data(), m, n);
      ASSERT_TRUE(dense.ok());
      ASSERT_TRUE(packed.ok());
      ExpectMatricesIdentical(*dense, packed->ToMatrix());
    }
  }
  std::vector<const double*> ptrs(2, nullptr);
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(ptrs.data(), 0, 3).ok());
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(ptrs.data(), 2, 1).ok());
}

TEST(TiledCorrelationTest, DegenerateColumnsAndValidation) {
  // A constant column has zero variance; the reference zeroes its
  // off-diagonal correlations and keeps the unit diagonal.
  std::vector<std::vector<double>> scores{{1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}};
  std::vector<const double*> ptrs{scores[0].data(), scores[1].data()};
  auto ref = NormalScoresCorrelation(scores);
  auto tiled = NormalScoresCorrelationTiledPacked(ptrs.data(), 2, 3);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(tiled.ok());
  ExpectMatricesIdentical(*ref, tiled->ToMatrix());
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(ptrs.data(), 0, 3).ok());
  EXPECT_FALSE(NormalScoresCorrelationTiledPacked(ptrs.data(), 2, 1).ok());
}

TEST(TiledCorrelationTest, WorkspaceReuseAcrossShapesIsClean) {
  // The thread_local workspace serves calls of very different shapes
  // back-to-back — larger then smaller then larger — and every result must
  // still match the reference exactly.
  Rng rng(99);
  for (const std::size_t n : {700u, 8u, 1024u, 2u, 300u}) {
    const std::size_t m = 2 + n % 5;
    std::vector<std::vector<double>> scores(m, std::vector<double>(n));
    for (auto& col : scores) {
      for (auto& v : col) v = rng.NextGaussian();
    }
    std::vector<const double*> ptrs(m);
    for (std::size_t j = 0; j < m; ++j) ptrs[j] = scores[j].data();
    auto ref = NormalScoresCorrelation(scores);
    auto tiled = NormalScoresCorrelationTiledPacked(ptrs.data(), m, n);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(tiled.ok());
    ExpectMatricesIdentical(*ref, tiled->ToMatrix());
  }
}

// ---------------------------------------------------------------------------
// Estimator-level equivalence with the per-partition oracle.

class MleKernelRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MleKernelRandomTest, NoisyOutputBitIdenticalAcrossKernels) {
  const int seed = GetParam();
  // Domain regimes: heavy ties (6), the benchmark shape (64), and a wide
  // domain where most values are distinct within a partition.
  const std::int64_t domain = (seed % 3 == 0) ? 6 : (seed % 3 == 1 ? 64 : 997);
  const std::size_t n = 1500 + static_cast<std::size_t>(seed) * 211;
  const std::size_t m = 3 + static_cast<std::size_t>(seed) % 3;
  data::Table t = MakeCorrelated(n, m, 0.4, 7000 + seed, domain);

  MleEstimatorOptions options;
  // Force a partition count that leaves a dropped remainder on most seeds.
  options.num_partitions = 7 + seed % 5;

  Rng r1(123), r2(123);
  auto legacy = reference::EstimateMleCorrelation(t, 1.0, &r1, options);
  auto batched = EstimateMleCorrelation(t, 1.0, &r2, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  ExpectMatricesIdentical(legacy->correlation, batched->correlation);
  EXPECT_EQ(legacy->num_partitions, batched->num_partitions);
  EXPECT_EQ(legacy->rows_per_partition, batched->rows_per_partition);
  EXPECT_EQ(legacy->rows_dropped, batched->rows_dropped);
  EXPECT_EQ(legacy->laplace_scale, batched->laplace_scale);
  EXPECT_EQ(legacy->repaired, batched->repaired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MleKernelRandomTest, ::testing::Range(0, 9));

TEST(MleKernelEquivalenceTest, NonIntegralValuesMatchLegacy) {
  // EvaluateMid bins by floor while FromData counts by llround; the batched
  // run walk reproduces that skew for non-integral values. Perturb integer
  // data with fractional offsets on both sides of .5 (staying inside the
  // llround domain) and require bit-identity.
  data::Table t = MakeCorrelated(900, 3, 0.3, 51, /*domain=*/24);
  for (std::size_t j = 0; j < t.num_columns(); ++j) {
    auto& col = t.mutable_column(j);
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (i % 3 == 1 && col[i] >= 1.0) col[i] -= 0.25;
      if (i % 3 == 2 && col[i] >= 1.0) col[i] -= 0.75;
      // Exact halves: llround rounds away from zero, floor+0.5 tricks must
      // agree with it here.
      if (i % 7 == 5 && col[i] >= 2.0) col[i] -= 0.5;
    }
    // Small negative fraction: llround bins it at 0 (in domain) while
    // floor lands at -1 and EvaluateMid clamps back to 0.
    col[j] = -0.25;
  }
  MleEstimatorOptions options;
  options.num_partitions = 5;
  Rng r1(9), r2(9);
  auto legacy = reference::EstimateMleCorrelation(t, 1.0, &r1, options);
  auto batched = EstimateMleCorrelation(t, 1.0, &r2, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  ExpectMatricesIdentical(legacy->correlation, batched->correlation);
}

TEST(MleKernelEquivalenceTest, HugeDomainSparsePathMatchesLegacy) {
  // A domain too large for the dense per-partition histogram pushes the
  // batched kernel onto the sorted sparse path. Fractional perturbations
  // land eval bins on empty histogram bins — including below every counted
  // bin — which the sparse cumulative lookup must reproduce exactly.
  data::Table t = MakeCorrelated(900, 3, 0.35, 77, /*domain=*/50000);
  for (std::size_t j = 0; j < t.num_columns(); ++j) {
    auto& col = t.mutable_column(j);
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (i % 4 == 1 && col[i] >= 1.0) col[i] -= 0.25;
      if (i % 4 == 3 && col[i] >= 1.0) col[i] -= 0.75;
      if (i % 7 == 5 && col[i] >= 2.0) col[i] -= 0.5;
    }
    col[j] = 0.75;  // llround bin 1, eval bin 0: below all counted mass.
  }
  MleEstimatorOptions options;
  options.num_partitions = 5;
  Rng r1(15), r2(15);
  auto legacy = reference::EstimateMleCorrelation(t, 1.0, &r1, options);
  auto batched = EstimateMleCorrelation(t, 1.0, &r2, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  ExpectMatricesIdentical(legacy->correlation, batched->correlation);
}

TEST(MleKernelEquivalenceTest, ThreadCountInvariance) {
  data::Table t = MakeCorrelated(4000, 5, 0.4, 321);
  MleEstimatorOptions options;
  options.num_partitions = 16;
  linalg::Matrix reference;
  for (const int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    Rng rng(999);
    auto est = EstimateMleCorrelation(t, 1.0, &rng, options);
    ASSERT_TRUE(est.ok()) << "threads=" << threads;
    if (threads == 1) {
      reference = est->correlation;
    } else {
      ExpectMatricesIdentical(reference, est->correlation);
    }
  }
}

TEST(MleKernelEquivalenceTest, EstimatorWorkspaceReuseIsClean) {
  // Back-to-back estimates of different shapes on the same thread reuse the
  // thread_local pseudo-observation workspace; each must still match the
  // oracle exactly.
  struct Shape {
    std::size_t n, m;
    std::int64_t domain, partitions;
  };
  const Shape shapes[] = {{2500, 4, 64, 11},
                          {400, 3, 6, 3},
                          {3000, 5, 500, 16},
                          {150, 2, 12, 2}};
  int idx = 0;
  for (const auto& s : shapes) {
    data::Table t =
        MakeCorrelated(s.n, s.m, 0.35, 800 + idx, s.domain);
    MleEstimatorOptions options;
    options.num_partitions = s.partitions;
    options.num_threads = 1;
    Rng r1(42), r2(42);
    auto legacy = reference::EstimateMleCorrelation(t, 0.9, &r1, options);
    auto batched = EstimateMleCorrelation(t, 0.9, &r2, options);
    ASSERT_TRUE(legacy.ok()) << "shape " << idx;
    ASSERT_TRUE(batched.ok()) << "shape " << idx;
    ExpectMatricesIdentical(legacy->correlation, batched->correlation);
    ++idx;
  }
}

TEST(MleKernelEquivalenceTest, OutOfDomainValueFailsBothKernelsAlike) {
  data::Table t = MakeCorrelated(600, 3, 0.3, 61, /*domain=*/24);
  t.mutable_column(1)[100] = 400.0;  // Outside the declared domain.
  MleEstimatorOptions strict;
  strict.num_partitions = 6;
  Rng s1(5), s2(5);
  for (const auto& est :
       {EstimateMleCorrelation(t, 1.0, &s1, strict),
        reference::EstimateMleCorrelation(t, 1.0, &s2, strict)}) {
    ASSERT_FALSE(est.ok());
    EXPECT_NE(est.status().message().find("outside domain"),
              std::string::npos);
  }
  // With enough failure headroom the poisoned partition is excluded and the
  // survivor averages must again agree bit for bit.
  MleEstimatorOptions options;
  options.num_partitions = 6;
  options.max_failed_partitions = 2;
  Rng r1(5), r2(5);
  auto legacy = reference::EstimateMleCorrelation(t, 1.0, &r1, options);
  auto batched = EstimateMleCorrelation(t, 1.0, &r2, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(legacy->failed_partitions, 1);
  EXPECT_EQ(batched->failed_partitions, 1);
  ExpectMatricesIdentical(legacy->correlation, batched->correlation);
}

TEST(MleKernelEquivalenceTest, BatchedRejectsNonFiniteData) {
  // A non-finite value fails the whole estimate up front (the oracle's
  // llround would be undefined on it).
  data::Table t = MakeCorrelated(300, 3, 0.3, 13);
  t.mutable_column(2)[7] = std::nan("");
  MleEstimatorOptions options;
  options.num_partitions = 3;
  Rng rng(5);
  auto est = EstimateMleCorrelation(t, 1.0, &rng, options);
  ASSERT_FALSE(est.ok());
  EXPECT_NE(est.status().message().find("non-finite"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection: survivor averaging under the batched kernel.

class MleFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Global().DisarmAll(); }
  void TearDown() override { Registry::Global().DisarmAll(); }
};

TEST_F(MleFailpointTest, SurvivorAveragingMatchesLegacyUnderInjectedFaults) {
  data::Table t = MakeCorrelated(1200, 4, 0.4, 404);
  // Partitions 0, 3, 6, 9 fail by injection; the failpoint index is the
  // partition number, so the schedule is identical for the kernel, the
  // oracle and every thread count.
  MleEstimatorOptions options;
  options.num_partitions = 10;
  options.max_failed_partitions = 4;

  ASSERT_TRUE(Registry::Global().Arm("mle.partition_fit", "1in3").ok());
  Rng r1(31), r2(31);
  auto legacy = reference::EstimateMleCorrelation(t, 1.0, &r1, options);
  auto batched = EstimateMleCorrelation(t, 1.0, &r2, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(legacy->failed_partitions, 4);
  EXPECT_EQ(batched->failed_partitions, 4);
  // Larger noise scale from fewer survivors, and identical releases.
  EXPECT_EQ(legacy->laplace_scale, batched->laplace_scale);
  ExpectMatricesIdentical(legacy->correlation, batched->correlation);

  // Strict mode: the same schedule with no headroom fails closed with the
  // injected-fault status in the kernel and the oracle. kOnce keys on the
  // partition index (not a hit counter), so one arming covers both runs.
  Registry::Global().DisarmAll();
  ASSERT_TRUE(Registry::Global().Arm("mle.partition_fit", "once").ok());
  MleEstimatorOptions strict;
  strict.num_partitions = 10;
  Rng s1(3), s2(3);
  for (const auto& est :
       {EstimateMleCorrelation(t, 1.0, &s1, strict),
        reference::EstimateMleCorrelation(t, 1.0, &s2, strict)}) {
    ASSERT_FALSE(est.ok());
    EXPECT_NE(est.status().message().find("mle.partition_fit"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// PseudoObservationsWithCdfs validation (satellite regression).

TEST(PseudoObsValidationTest, RejectsColumnShorterThanFittedCdf) {
  data::Table full = MakeCorrelated(200, 3, 0.3, 17, /*domain=*/16);
  // Fit CDFs on the full 200-row columns.
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < full.num_columns(); ++j) {
    auto cdf = stats::EmpiricalCdf::FromData(full.column(j), 16);
    ASSERT_TRUE(cdf.ok());
    EXPECT_EQ(cdf->fitted_rows(), 200u);
    cdfs.push_back(*cdf);
  }
  // A truncated table paired with those CDFs must be rejected, not silently
  // transformed with stale cumulative counts.
  data::Table truncated = data::Table::Zeros(full.schema(), 150);
  for (std::size_t j = 0; j < full.num_columns(); ++j) {
    auto& dst = truncated.mutable_column(j);
    for (std::size_t i = 0; i < 150; ++i) dst[i] = full.column(j)[i];
  }
  auto pseudo = copula::PseudoObservationsWithCdfs(truncated, cdfs);
  ASSERT_FALSE(pseudo.ok());
  EXPECT_NE(pseudo.status().message().find("fitted on"), std::string::npos);

  // The matching table still works...
  EXPECT_TRUE(copula::PseudoObservationsWithCdfs(full, cdfs).ok());

  // ...and CDFs built from (noisy) counts carry no row count, so any table
  // length is accepted — the DP pipeline pairs noisy marginals with data of
  // unrelated size by design.
  std::vector<stats::EmpiricalCdf> noisy;
  for (std::size_t j = 0; j < full.num_columns(); ++j) {
    std::vector<double> counts(16, 1.0);
    auto cdf = stats::EmpiricalCdf::FromCounts(counts);
    ASSERT_TRUE(cdf.ok());
    EXPECT_EQ(cdf->fitted_rows(), 0u);
    noisy.push_back(*cdf);
  }
  EXPECT_TRUE(copula::PseudoObservationsWithCdfs(truncated, noisy).ok());
}

// ---------------------------------------------------------------------------
// Matrix::AddInPlace (satellite regression).

TEST(MatrixAddInPlaceTest, MatchesOperatorPlus) {
  Rng rng(1);
  linalg::Matrix a(4, 4), b(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = rng.NextGaussian();
      b(i, j) = rng.NextGaussian();
    }
  }
  const linalg::Matrix sum = a + b;
  a.AddInPlace(b);
  ExpectMatricesIdentical(sum, a);
}

}  // namespace
}  // namespace dpcopula
