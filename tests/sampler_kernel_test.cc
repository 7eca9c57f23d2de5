// Coverage for the compiled sampling plan of Algorithm 3: the tiled kernel
// must be bit-identical across thread counts and across calls on one shared
// plan, statistically indistinguishable from the sequential scalar oracle in
// tests/reference/, and the guide-table inversion must never emit a
// zero-mass value.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "data/schema.h"
#include "reference/sampler_reference.h"
#include "stats/empirical_cdf.h"
#include "stats/kendall.h"

namespace dpcopula::copula {
namespace {

struct SamplerFixture {
  data::Schema schema;
  std::vector<stats::EmpiricalCdf> cdfs;
  linalg::Matrix corr;
};

/// m skewed marginals (alternating increasing/decreasing mass, one with a
/// clamped zero tail) over domains of `domain` values, equicorrelated.
SamplerFixture MakeFixture(std::size_t m, std::int64_t domain, double rho) {
  SamplerFixture fx;
  std::vector<data::Attribute> attrs;
  for (std::size_t j = 0; j < m; ++j) {
    std::string name = "x";
    name += std::to_string(j);
    attrs.push_back({std::move(name), domain});
    std::vector<double> counts(static_cast<std::size_t>(domain));
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = (j % 2 == 0) ? static_cast<double>(v + 1)
                               : static_cast<double>(counts.size() - v);
    }
    if (j == 1) {
      // Zero tail: the tail-bias fix must keep these bins unreachable.
      counts[counts.size() - 1] = 0.0;
      counts[counts.size() - 2] = 0.0;
    }
    fx.cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
  }
  fx.schema = data::Schema(attrs);
  fx.corr = *data::Equicorrelation(m, rho);
  return fx;
}

bool TablesEqual(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

std::vector<double> ColumnCounts(const data::Table& t, std::size_t j,
                                 std::size_t domain) {
  std::vector<double> counts(domain, 0.0);
  for (const double v : t.column(j)) {
    counts[static_cast<std::size_t>(v)] += 1.0;
  }
  return counts;
}

/// Two-sample chi-squared statistic over per-value counts; under H0 (same
/// distribution) it is chi-squared with (#nonempty bins - 1) dof.
double TwoSampleChiSquared(const std::vector<double>& a,
                           const std::vector<double>& b, int* dof) {
  double na = 0.0, nb = 0.0;
  for (const double c : a) na += c;
  for (const double c : b) nb += c;
  const double ra = std::sqrt(nb / na), rb = std::sqrt(na / nb);
  double stat = 0.0;
  *dof = -1;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const double total = a[v] + b[v];
    if (total == 0.0) continue;
    const double diff = ra * a[v] - rb * b[v];
    stat += diff * diff / total;
    ++*dof;
  }
  return stat;
}

TEST(SamplerKernelTest, TiledOutputBitIdenticalAcross1248Threads) {
  const auto fx = MakeFixture(5, 40, 0.4);
  const std::size_t rows = kSamplerShardRows * 2 + kSamplerTileRows / 2 + 17;
  Rng r1(4242);
  const auto base = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, rows,
                                        &r1, 1);
  ASSERT_TRUE(base.ok());
  for (const int threads : {2, 4, 8}) {
    Rng rn(4242);
    const auto out = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, rows,
                                         &rn, threads);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(TablesEqual(*base, *out)) << "threads=" << threads;
  }
}

TEST(SamplerKernelTest, TiledTSamplerBitIdenticalAcross1248Threads) {
  const auto fx = MakeFixture(4, 24, 0.3);
  const std::size_t rows = kSamplerShardRows + kSamplerTileRows + 3;
  const auto plan = SamplingPlan::StudentT(fx.schema, fx.cdfs, fx.corr, 6.0);
  ASSERT_TRUE(plan.ok());
  Rng r1(777);
  const auto base = plan->Sample(rows, &r1, 1);
  ASSERT_TRUE(base.ok());
  for (const int threads : {2, 4, 8}) {
    Rng rn(777);
    const auto out = plan->Sample(rows, &rn, threads);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(TablesEqual(*base, *out)) << "threads=" << threads;
  }
}

// Serve workers and sampler shards share one read-only plan: concurrent
// Sample() calls on it must each reproduce the one-shot path byte for byte
// (and run clean under ThreadSanitizer).
TEST(SamplerKernelTest, SharedPlanMatchesOneShotUnderConcurrentCalls) {
  const auto fx = MakeFixture(4, 24, 0.3);
  const std::size_t rows = kSamplerShardRows + kSamplerTileRows + 3;
  const auto gaussian = SamplingPlan::Gaussian(fx.schema, fx.cdfs, fx.corr);
  const auto student_t =
      SamplingPlan::StudentT(fx.schema, fx.cdfs, fx.corr, 6.0);
  ASSERT_TRUE(gaussian.ok());
  ASSERT_TRUE(student_t.ok());
  constexpr int kCallers = 4;
  std::vector<Result<data::Table>> g_out(kCallers, Status::Internal("unset"));
  std::vector<Result<data::Table>> t_out(kCallers, Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Rng g_rng(900 + c);
      g_out[c] = gaussian->Sample(rows, &g_rng, 2);
      Rng t_rng(900 + c);
      t_out[c] = student_t->Sample(rows, &t_rng, 2);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    Rng g_rng(900 + c);
    const auto g_ref =
        SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, rows, &g_rng, 1);
    Rng t_rng(900 + c);
    const auto t_ref = student_t->Sample(rows, &t_rng, 1);
    ASSERT_TRUE(g_ref.ok() && t_ref.ok() && g_out[c].ok() && t_out[c].ok());
    EXPECT_TRUE(TablesEqual(*g_ref, *g_out[c])) << "caller " << c;
    EXPECT_TRUE(TablesEqual(*t_ref, *t_out[c])) << "caller " << c;
  }
}

TEST(SamplerKernelTest, TiledMatchesReferencePerMarginalChiSquared) {
  const std::size_t m = 4, domain = 30;
  const auto fx = MakeFixture(m, domain, 0.5);
  const std::size_t rows = 60000;

  Rng oracle_rng(9001);
  oracle_rng.set_gaussian_method(GaussianMethod::kPolar);
  const auto oracle = reference::SampleCopulaRows(
      fx.schema, fx.cdfs, fx.corr, /*dof=*/0.0, rows, &oracle_rng);
  ASSERT_TRUE(oracle.ok());

  Rng tiled_rng(9002);
  const auto tiled = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, rows,
                                         &tiled_rng, 1);
  ASSERT_TRUE(tiled.ok());

  for (std::size_t j = 0; j < m; ++j) {
    const auto ca = ColumnCounts(*oracle, j, domain);
    const auto cb = ColumnCounts(*tiled, j, domain);
    int dof = 0;
    const double stat = TwoSampleChiSquared(ca, cb, &dof);
    ASSERT_GE(dof, 1);
    // 99.9th percentile of chi-squared(k) ≈ k + 3.09*sqrt(2k) + 6.4 — a
    // loose Wilson-Hilferty-style bound; with 4 marginals a false alarm is
    // ~0.4%.
    const double kd = static_cast<double>(dof);
    EXPECT_LT(stat, kd + 3.09 * std::sqrt(2.0 * kd) + 6.4)
        << "marginal " << j << " dof " << dof;
  }
}

TEST(SamplerKernelTest, TiledReproducesTargetKendallTau) {
  const double rho = 0.6;
  const auto fx = MakeFixture(2, 50, rho);
  Rng rng(1337);
  const auto out = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, 40000,
                                       &rng, 1);
  ASSERT_TRUE(out.ok());
  const auto tau = stats::KendallTau(out->column(0), out->column(1));
  ASSERT_TRUE(tau.ok());
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.05);
}

TEST(SamplerKernelTest, TiledTSamplerMatchesReferenceStatistically) {
  const std::size_t m = 3, domain = 20;
  const auto fx = MakeFixture(m, domain, 0.4);
  const std::size_t rows = 30000;
  const double dof_t = 5.0;

  Rng oracle_rng(31);
  oracle_rng.set_gaussian_method(GaussianMethod::kPolar);
  const auto oracle = reference::SampleCopulaRows(fx.schema, fx.cdfs, fx.corr,
                                                  dof_t, rows, &oracle_rng);
  ASSERT_TRUE(oracle.ok());
  const auto plan =
      SamplingPlan::StudentT(fx.schema, fx.cdfs, fx.corr, dof_t);
  ASSERT_TRUE(plan.ok());
  Rng tiled_rng(32);
  const auto tiled = plan->Sample(rows, &tiled_rng, 1);
  ASSERT_TRUE(tiled.ok());

  for (std::size_t j = 0; j < m; ++j) {
    const auto ca = ColumnCounts(*oracle, j, domain);
    const auto cb = ColumnCounts(*tiled, j, domain);
    int dof = 0;
    const double stat = TwoSampleChiSquared(ca, cb, &dof);
    ASSERT_GE(dof, 1);
    const double kd = static_cast<double>(dof);
    EXPECT_LT(stat, kd + 3.09 * std::sqrt(2.0 * kd) + 6.4) << "marginal " << j;
  }
  const auto tau_a = stats::KendallTau(oracle->column(0), oracle->column(1));
  const auto tau_b = stats::KendallTau(tiled->column(0), tiled->column(1));
  ASSERT_TRUE(tau_a.ok());
  ASSERT_TRUE(tau_b.ok());
  EXPECT_NEAR(*tau_a, *tau_b, 0.04);
}

TEST(SamplerKernelTest, ZeroTailMarginalNeverEmitsZeroMassValues) {
  // Marginal 1 of the fixture has two zero-mass tail bins; the fixed
  // inversion (and its table form) must never emit them.
  const auto fx = MakeFixture(3, 12, 0.3);
  Rng rng(64);
  const auto out = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, 20000,
                                       &rng, 1);
  ASSERT_TRUE(out.ok());
  for (const double v : out->column(1)) {
    ASSERT_LE(v, 9.0);  // Domain 12, bins 10 and 11 carry zero mass.
  }
}

}  // namespace
}  // namespace dpcopula::copula
