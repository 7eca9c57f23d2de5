// Reproducibility: every pipeline in the library is a pure function of
// (data, options, seed). Identical seeds must give byte-identical results;
// different seeds must give different noise. This is what makes the
// experiment harness and regression debugging trustworthy.
#include <gtest/gtest.h>

#include "baselines/privelet.h"
#include "baselines/psd.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/mle_estimator.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "data/census.h"
#include "data/generator.h"
#include "stats/empirical_cdf.h"

namespace dpcopula {
namespace {

data::Table MakeTable(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 100),
      data::MarginSpec::Zipf("b", 100, 1.0)};
  return *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.5), 2000, &rng);
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

TEST(DeterminismTest, GeneratorIsSeedDeterministic) {
  EXPECT_TRUE(TablesEqual(MakeTable(42), MakeTable(42)));
  EXPECT_FALSE(TablesEqual(MakeTable(42), MakeTable(43)));
}

TEST(DeterminismTest, CensusSimulatorsAreSeedDeterministic) {
  Rng r1(7), r2(7), r3(8);
  auto a = data::GenerateUsCensus(500, &r1);
  auto b = data::GenerateUsCensus(500, &r2);
  auto c = data::GenerateUsCensus(500, &r3);
  EXPECT_TRUE(TablesEqual(*a, *b));
  EXPECT_FALSE(TablesEqual(*a, *c));
}

TEST(DeterminismTest, SynthesizeIsSeedDeterministic) {
  data::Table t = MakeTable(1);
  core::DpCopulaOptions opts;
  opts.epsilon = 1.0;
  Rng r1(99), r2(99), r3(100);
  auto a = core::Synthesize(t, opts, &r1);
  auto b = core::Synthesize(t, opts, &r2);
  auto c = core::Synthesize(t, opts, &r3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(TablesEqual(a->synthetic, b->synthetic));
  EXPECT_FALSE(TablesEqual(a->synthetic, c->synthetic));
  EXPECT_LT(a->model.correlation.MaxAbsDiff(b->model.correlation), 1e-15);
  EXPECT_GT(a->model.correlation.MaxAbsDiff(c->model.correlation), 1e-9);
}

TEST(DeterminismTest, HybridIsSeedDeterministic) {
  Rng data_rng(3);
  auto t = data::GenerateUsCensus(2000, &data_rng);
  core::HybridOptions opts;
  opts.epsilon = 1.0;
  Rng r1(5), r2(5);
  auto a = core::SynthesizeHybrid(*t, opts, &r1);
  auto b = core::SynthesizeHybrid(*t, opts, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(TablesEqual(a->synthetic, b->synthetic));
}

TEST(DeterminismTest, BaselinesAreSeedDeterministic) {
  data::Table t = MakeTable(11);
  {
    Rng r1(21), r2(21);
    auto a = baselines::PsdTree::Build(t, 1.0, &r1);
    auto b = baselines::PsdTree::Build(t, 1.0, &r2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ((*a)->EstimateRangeCount({0, 0}, {99, 99}),
                     (*b)->EstimateRangeCount({0, 0}, {99, 99}));
  }
  {
    Rng r1(23), r2(23);
    auto a = baselines::PriveletMechanism::Release(t, 1.0, &r1);
    auto b = baselines::PriveletMechanism::Release(t, 1.0, &r2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ((*a)->EstimateRangeCount({5, 5}, {60, 80}),
                     (*b)->EstimateRangeCount({5, 5}, {60, 80}));
  }
}

// --- Thread-count invariance -------------------------------------------
//
// The parallel execution layer (common/parallel.h) must produce
// byte-identical output for every num_threads value: shards and their RNG
// streams are derived from the problem size alone, never from the
// schedule. 7 is deliberately coprime with typical shard counts.
constexpr int kThreadCounts[] = {1, 2, 7};

TEST(DeterminismTest, SamplerIsThreadCountInvariant) {
  const std::size_t m = 4;
  std::vector<data::Attribute> attrs;
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < m; ++j) {
    attrs.push_back({"x" + std::to_string(j), 32});
    std::vector<double> counts(32, 1.0);
    cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
  }
  const data::Schema schema(attrs);
  const linalg::Matrix corr = *data::Equicorrelation(m, 0.3);

  // > kSamplerShardRows rows so the parallel runs really span shards.
  const std::size_t rows = copula::kSamplerShardRows * 3 + 123;
  Rng r1(77);
  auto base = copula::SampleSyntheticData(schema, cdfs, corr, rows, &r1, 1);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    Rng rn(77);
    auto out =
        copula::SampleSyntheticData(schema, cdfs, corr, rows, &rn, threads);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(TablesEqual(*base, *out)) << "threads=" << threads;
  }
  // The t plan shares the sharding scheme.
  auto t_plan = copula::SamplingPlan::StudentT(schema, cdfs, corr, 5.0);
  ASSERT_TRUE(t_plan.ok());
  Rng t1(78);
  auto t_base = t_plan->Sample(rows, &t1, 1);
  ASSERT_TRUE(t_base.ok());
  for (int threads : kThreadCounts) {
    Rng tn(78);
    auto out = t_plan->Sample(rows, &tn, threads);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(TablesEqual(*t_base, *out)) << "threads=" << threads;
  }
}

TEST(DeterminismTest, KendallEstimatorIsThreadCountInvariant) {
  Rng data_rng(4);
  std::vector<data::MarginSpec> specs;
  for (int j = 0; j < 5; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("g" + std::to_string(j), 64));
  }
  auto t = data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(5, 0.4), 1500, &data_rng);
  ASSERT_TRUE(t.ok());
  copula::KendallEstimatorOptions opts;
  opts.num_threads = 1;
  Rng r1(55);
  auto base = copula::EstimateKendallCorrelation(*t, 0.5, &r1, opts);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    opts.num_threads = threads;
    Rng rn(55);
    auto est = copula::EstimateKendallCorrelation(*t, 0.5, &rn, opts);
    ASSERT_TRUE(est.ok());
    EXPECT_EQ(base->correlation.MaxAbsDiff(est->correlation), 0.0)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, MleEstimatorIsThreadCountInvariant) {
  data::Table t = MakeTable(9);
  copula::MleEstimatorOptions opts;
  opts.num_partitions = 16;
  opts.num_threads = 1;
  Rng r1(66);
  auto base = copula::EstimateMleCorrelation(t, 0.5, &r1, opts);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    opts.num_threads = threads;
    Rng rn(66);
    auto est = copula::EstimateMleCorrelation(t, 0.5, &rn, opts);
    ASSERT_TRUE(est.ok());
    EXPECT_EQ(base->correlation.MaxAbsDiff(est->correlation), 0.0)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, SynthesizeIsThreadCountInvariant) {
  data::Table t = MakeTable(21);
  core::DpCopulaOptions opts;
  opts.epsilon = 1.0;
  opts.num_threads = 1;
  Rng r1(111);
  auto base = core::Synthesize(t, opts, &r1);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    opts.num_threads = threads;
    Rng rn(111);
    auto res = core::Synthesize(t, opts, &rn);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(TablesEqual(base->synthetic, res->synthetic))
        << "threads=" << threads;
    EXPECT_EQ(base->model.correlation.MaxAbsDiff(res->model.correlation), 0.0)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, HybridIsThreadCountInvariant) {
  Rng data_rng(12);
  auto t = data::GenerateUsCensus(3000, &data_rng);
  ASSERT_TRUE(t.ok());
  // kAutoAic runs the family votes in both gender partitions, side by side
  // at more than one thread.
  for (const core::CopulaFamily family :
       {core::CopulaFamily::kGaussian, core::CopulaFamily::kAutoAic}) {
    SCOPED_TRACE(family == core::CopulaFamily::kGaussian ? "gaussian"
                                                          : "auto");
    core::HybridOptions opts;
    opts.epsilon = 1.0;
    opts.inner.family = family;
    opts.num_threads = 1;
    Rng r1(222);
    auto base = core::SynthesizeHybrid(*t, opts, &r1);
    ASSERT_TRUE(base.ok());
    for (int threads : kThreadCounts) {
      opts.num_threads = threads;
      // Nested parallelism: each partition's fit and sampling loops fan
      // out to idle pool workers, and the output must not change.
      Rng rn(222);
      auto res = core::SynthesizeHybrid(*t, opts, &rn);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(TablesEqual(base->synthetic, res->synthetic))
          << "threads=" << threads;
      EXPECT_EQ(base->num_skipped_partitions, res->num_skipped_partitions);
    }
  }
}

TEST(DeterminismTest, SplitStreamsAreStable) {
  // Master/Split() pattern used by every bench: splitting must be
  // reproducible so per-run workloads can be regenerated.
  Rng m1(31), m2(31);
  for (int i = 0; i < 5; ++i) {
    Rng c1 = m1.Split();
    Rng c2 = m2.Split();
    for (int k = 0; k < 16; ++k) {
      EXPECT_EQ(c1.NextUint64(), c2.NextUint64());
    }
  }
}

}  // namespace
}  // namespace dpcopula
