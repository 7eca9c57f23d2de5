// Coverage for the compiled sampling plan of Algorithm 3: the tiled kernel
// must be bit-identical across thread counts and across calls on one shared
// plan, statistically indistinguishable from the sequential scalar oracle in
// tests/reference/ (partial tiles included), prefix-stable over its full
// tiles, and write the same bytes into a caller's block as into its own
// table; the guide-table inversion must never emit a zero-mass value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
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

// ---------------------------------------------------------------------------
// Partial tiles. Every sample shorter than a tile, and the last
// `rows mod kSamplerTileRows` rows of any other, run through a tile with
// fewer rows than kSamplerTileRows; each of its columns needs Gaussian
// draws of its own.

/// Pairwise Kendall's tau of every column pair, averaged over samples.
std::vector<double> MeanPairTaus(const std::vector<data::Table>& samples) {
  const std::size_t m = samples.front().num_columns();
  std::vector<double> taus;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      double sum = 0.0;
      for (const data::Table& t : samples) {
        sum += *stats::KendallTau(t.column(j), t.column(k));
      }
      taus.push_back(sum / static_cast<double>(samples.size()));
    }
  }
  return taus;
}

std::vector<double> PooledCounts(const std::vector<data::Table>& samples,
                                 std::size_t j, std::size_t domain) {
  std::vector<double> counts(domain, 0.0);
  for (const data::Table& t : samples) {
    const auto c = ColumnCounts(t, j, domain);
    for (std::size_t v = 0; v < domain; ++v) counts[v] += c[v];
  }
  return counts;
}

TEST(SamplerKernelTest, SmallSamplesMatchReferenceMarginsAndTaus) {
  // m = 8 puts columns 4-7 of a 100-row tile past m * 100 entries of the
  // Gaussian block. 40 samples per side are pooled so a 100-row sample's
  // margins and taus can be compared with power.
  const std::size_t m = 8, domain = 20, kSamples = 40;
  const auto fx = MakeFixture(m, domain, 0.5);
  const auto plan = SamplingPlan::Gaussian(fx.schema, fx.cdfs, fx.corr);
  ASSERT_TRUE(plan.ok());
  for (const std::size_t rows : {100u, 300u}) {
    std::vector<data::Table> tiled, oracle;
    for (std::size_t s = 0; s < kSamples; ++s) {
      Rng tiled_rng(5000 + s);
      auto t = plan->Sample(rows, &tiled_rng, 1);
      ASSERT_TRUE(t.ok());
      tiled.push_back(std::move(*t));
      Rng oracle_rng(6000 + s);
      auto o = reference::SampleCopulaRows(fx.schema, fx.cdfs, fx.corr,
                                           /*dof=*/0.0, rows, &oracle_rng);
      ASSERT_TRUE(o.ok());
      oracle.push_back(std::move(*o));
    }
    for (std::size_t j = 0; j < m; ++j) {
      int dof = 0;
      const double stat = TwoSampleChiSquared(
          PooledCounts(oracle, j, domain), PooledCounts(tiled, j, domain),
          &dof);
      ASSERT_GE(dof, 1);
      const double kd = static_cast<double>(dof);
      EXPECT_LT(stat, kd + 3.09 * std::sqrt(2.0 * kd) + 6.4)
          << "rows " << rows << " marginal " << j;
    }
    const auto tau_oracle = MeanPairTaus(oracle);
    const auto tau_tiled = MeanPairTaus(tiled);
    for (std::size_t p = 0; p < tau_oracle.size(); ++p) {
      EXPECT_NEAR(tau_tiled[p], tau_oracle[p], 0.06)
          << "rows " << rows << " pair " << p;
    }
  }
}

/// Distinct values in rows [begin, end) of column j.
std::size_t DistinctValues(const data::Table& t, std::size_t j,
                           std::size_t begin, std::size_t end) {
  std::vector<double> v(t.column(j).begin() + begin,
                        t.column(j).begin() + end);
  std::sort(v.begin(), v.end());
  return static_cast<std::size_t>(std::unique(v.begin(), v.end()) -
                                  v.begin());
}

TEST(SamplerKernelTest, PartialTileColumnsAreIndependentDraws) {
  // Identity correlation over uniform 100-value margins: every column of a
  // partial tile is an independent uniform sample, so it reaches nearly
  // min(rows, 100) distinct values. A column without Gaussian draws of its
  // own is constant.
  const std::size_t m = 8;
  std::vector<data::Attribute> attrs;
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < m; ++j) {
    attrs.push_back({"u" + std::to_string(j), 100});
    cdfs.push_back(
        *stats::EmpiricalCdf::FromCounts(std::vector<double>(100, 1.0)));
  }
  const data::Schema schema(attrs);
  const auto plan =
      SamplingPlan::Gaussian(schema, cdfs, linalg::Matrix::Identity(m));
  ASSERT_TRUE(plan.ok());
  struct Case {
    std::size_t rows, begin, floor;
  };
  // Floors sit far below the expected distinct counts (6.8, 63, 92, 63)
  // and far above the 1 of a constant column.
  const Case cases[] = {{7, 0, 4},
                        {100, 0, 45},
                        {255, 0, 75},
                        {kSamplerShardRows + 100, kSamplerShardRows, 45}};
  for (const Case& c : cases) {
    Rng rng(77);
    const auto out = plan->Sample(c.rows, &rng, 1);
    ASSERT_TRUE(out.ok());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_GE(DistinctValues(*out, j, c.begin, c.rows), c.floor)
          << "rows " << c.rows << " column " << j;
    }
  }
}

TEST(SamplerKernelTest, FullTilesArePrefixStable) {
  // Shard RNGs are split in shard order and a full tile's draws do not
  // depend on the sample's length, so the full tiles of Sample(n) equal the
  // first rows of a longer sample from the same seed. Only the partial
  // tail tile may differ.
  const auto fx = MakeFixture(5, 24, 0.3);
  const auto gaussian = SamplingPlan::Gaussian(fx.schema, fx.cdfs, fx.corr);
  const auto student_t =
      SamplingPlan::StudentT(fx.schema, fx.cdfs, fx.corr, 6.0);
  ASSERT_TRUE(gaussian.ok());
  ASSERT_TRUE(student_t.ok());
  constexpr std::size_t kLong = 2 * kSamplerShardRows + 1;  // 8193.
  for (const SamplingPlan* plan : {&*gaussian, &*student_t}) {
    Rng long_rng(2024);
    const auto full = plan->Sample(kLong, &long_rng, 1);
    ASSERT_TRUE(full.ok());
    for (const std::size_t n : {1u, 255u, 256u, 257u, 4095u, 4097u, 8193u}) {
      Rng rng(2024);
      const auto out = plan->Sample(n, &rng, 1);
      ASSERT_TRUE(out.ok());
      const std::size_t prefix = n / kSamplerTileRows * kSamplerTileRows;
      for (std::size_t j = 0; j < fx.schema.num_attributes(); ++j) {
        EXPECT_EQ(std::memcmp(out->column(j).data(), full->column(j).data(),
                              prefix * sizeof(double)),
                  0)
            << "n " << n << " column " << j;
      }
    }
  }
}

TEST(SamplerKernelTest, SampleIntoWritesSampleBytesIntoItsBlockOnly) {
  // A hybrid partition samples straight into its block of the release. On
  // a block of a larger zeroed table, SampleInto must write exactly
  // Sample's bytes, leave every other cell at zero and leave the RNG where
  // Sample leaves it. 9,001 rows are three shards and a partial tile.
  constexpr std::size_t kRows = 2 * kSamplerShardRows + 809;
  constexpr std::size_t kPad = 300;  // Rows before and after the block.
  const std::size_t m = 3;
  const auto fx = MakeFixture(m, 24, 0.3);
  Rng grid_rng(5);
  std::vector<std::vector<double>> pseudo(m, std::vector<double>(500));
  for (auto& col : pseudo) {
    for (double& u : col) u = grid_rng.NextDoubleOpen();
  }
  const auto grid = EmpiricalCopula::Fit(pseudo, 4);
  ASSERT_TRUE(grid.ok());
  const auto gaussian = SamplingPlan::Gaussian(fx.schema, fx.cdfs, fx.corr);
  const auto student_t =
      SamplingPlan::StudentT(fx.schema, fx.cdfs, fx.corr, 6.0);
  const auto empirical = SamplingPlan::Empirical(
      fx.schema, fx.cdfs, std::make_shared<const EmpiricalCopula>(*grid));
  ASSERT_TRUE(gaussian.ok() && student_t.ok() && empirical.ok());
  // The block is columns 1..m of a table with one more column in front.
  std::vector<data::Attribute> wide_attrs = {{"front", 5}};
  for (std::size_t j = 0; j < m; ++j) {
    wide_attrs.push_back(fx.schema.attribute(j));
  }
  const data::Schema wide(wide_attrs);
  const char* const names[] = {"gaussian", "t", "empirical"};
  const SamplingPlan* const plans[] = {&*gaussian, &*student_t, &*empirical};
  for (std::size_t f = 0; f < 3; ++f) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(names[f]) + " threads " +
                   std::to_string(threads));
      Rng sample_rng(31);
      const auto want = plans[f]->Sample(kRows, &sample_rng, threads);
      ASSERT_TRUE(want.ok());
      data::Table got = data::Table::Zeros(wide, kRows + 2 * kPad);
      std::vector<double*> block(m);
      for (std::size_t j = 0; j < m; ++j) {
        block[j] = got.mutable_column(j + 1).data() + kPad;
      }
      Rng into_rng(31);
      ASSERT_TRUE(
          plans[f]->SampleInto(kRows, &into_rng, threads, block.data()).ok());
      EXPECT_EQ(into_rng.NextUint64(), sample_rng.NextUint64());
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(std::memcmp(block[j], want->column(j).data(),
                              kRows * sizeof(double)),
                  0)
            << "column " << j;
      }
      for (std::size_t c = 0; c <= m; ++c) {
        const std::vector<double>& col = got.column(c);
        for (std::size_t r = 0; r < col.size(); ++r) {
          if (c > 0 && r >= kPad && r < kPad + kRows) continue;
          ASSERT_EQ(col[r], 0.0) << "column " << c << " row " << r;
        }
      }
    }
  }
}

TEST(SamplerKernelTest, RowCountPastTheLongestColumnRefusedBeforeDrawing) {
  // Table::Zeros would throw std::length_error past the longest column a
  // vector can hold (an abort through the CLI); Sample refuses first,
  // without drawing.
  const auto fx = MakeFixture(2, 10, 0.3);
  const auto plan = SamplingPlan::Gaussian(fx.schema, fx.cdfs, fx.corr);
  ASSERT_TRUE(plan.ok());
  for (const std::size_t rows : {std::size_t{1} << 62, kMaxSampleRows + 1}) {
    Rng rng(7);
    EXPECT_EQ(plan->Sample(rows, &rng, 4).status().code(),
              StatusCode::kInvalidArgument)
        << rows;
    Rng untouched(7);
    EXPECT_EQ(rng.NextUint64(), untouched.NextUint64()) << rows;
  }
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
