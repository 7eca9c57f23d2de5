#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "core/model_io.h"
#include "data/census.h"
#include "data/generator.h"
#include "reference/hybrid_reference.h"
#include "stats/kendall.h"

namespace dpcopula::core {
namespace {

data::Table MakeSynthetic(std::size_t n, std::size_t m, double rho, Rng* rng,
                          std::int64_t domain = 200) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("x" + std::to_string(j), domain));
  }
  auto corr = data::Equicorrelation(m, rho);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

TEST(BudgetSplitTest, RatioK) {
  DpCopulaOptions opts;
  opts.epsilon = 1.0;
  opts.budget_ratio_k = 8.0;
  auto split = ComputeBudgetSplit(opts);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(split->epsilon1, 8.0 / 9.0, 1e-12);
  EXPECT_NEAR(split->epsilon2, 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(split->epsilon1 / split->epsilon2, 8.0, 1e-9);
}

TEST(BudgetSplitTest, ValidatesParameters) {
  DpCopulaOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(ComputeBudgetSplit(opts).ok());
  opts.epsilon = 1.0;
  opts.budget_ratio_k = -1.0;
  EXPECT_FALSE(ComputeBudgetSplit(opts).ok());
}

TEST(SynthesizeTest, OutputMatchesSchemaAndRowCount) {
  Rng rng(201);
  data::Table t = MakeSynthetic(2000, 3, 0.5, &rng);
  DpCopulaOptions opts;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->synthetic.schema() == t.schema());
  EXPECT_EQ(res->synthetic.num_rows(), 2000u);
  EXPECT_TRUE(res->synthetic.Validate().ok());
}

TEST(SynthesizeTest, ExplicitRowCountHonored) {
  Rng rng(203);
  data::Table t = MakeSynthetic(1000, 2, 0.5, &rng);
  DpCopulaOptions opts;
  opts.num_synthetic_rows = 123;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->synthetic.num_rows(), 123u);
}

TEST(SynthesizeTest, BudgetFullyAccounted) {
  Rng rng(205);
  data::Table t = MakeSynthetic(1000, 4, 0.3, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 0.7;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->budget.spent(), 0.7, 1e-9);
  EXPECT_NEAR(res->budget.total_epsilon(), 0.7, 1e-12);
  // m margins + 1 correlation charge.
  EXPECT_EQ(res->budget.entries().size(), 5u);
}

TEST(SynthesizeTest, HighBudgetPreservesMarginsAndDependence) {
  Rng rng(207);
  data::Table t = MakeSynthetic(20000, 2, 0.6, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 50.0;  // Nearly noiseless.
  opts.kendall.subsample = false;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  // Dependence preserved.
  auto tau_orig = stats::KendallTau(t.column(0), t.column(1));
  auto tau_synth =
      stats::KendallTau(res->synthetic.column(0), res->synthetic.column(1));
  EXPECT_NEAR(*tau_synth, *tau_orig, 0.05);
  // Margins preserved: compare column means.
  for (std::size_t j = 0; j < 2; ++j) {
    double mo = 0.0, ms = 0.0;
    for (double v : t.column(j)) mo += v;
    for (double v : res->synthetic.column(j)) ms += v;
    mo /= static_cast<double>(t.num_rows());
    ms /= static_cast<double>(res->synthetic.num_rows());
    EXPECT_NEAR(ms, mo, 5.0) << "column " << j;
  }
}

TEST(SynthesizeTest, MleEstimatorPath) {
  Rng rng(209);
  data::Table t = MakeSynthetic(5000, 3, 0.4, &rng);
  DpCopulaOptions opts;
  opts.estimator = CorrelationEstimator::kMle;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->mle_partitions, 0);
  EXPECT_EQ(res->kendall_rows_used, 0);
}

TEST(SynthesizeTest, KendallEstimatorPath) {
  Rng rng(211);
  data::Table t = MakeSynthetic(5000, 3, 0.4, &rng);
  DpCopulaOptions opts;
  opts.estimator = CorrelationEstimator::kKendall;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->kendall_rows_used, 0);
  EXPECT_EQ(res->mle_partitions, 0);
}

TEST(SynthesizeTest, SingleColumnSpendsAllBudgetOnMargin) {
  Rng rng(213);
  data::Table t = MakeSynthetic(1000, 1, 0.0, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 1.0;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->budget.entries().size(), 1u);
  EXPECT_NEAR(res->budget.entries()[0].epsilon, 1.0, 1e-12);
  EXPECT_EQ(res->model.correlation.rows(), 1u);
}

TEST(SynthesizeTest, TinyTableFallsBackToIdentityCopula) {
  Rng rng(215);
  data::Table t(data::Schema({{"a", 50}, {"b", 50}}));
  ASSERT_TRUE(t.AppendRow({10, 20}).ok());
  DpCopulaOptions opts;
  opts.num_synthetic_rows = 10;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->synthetic.num_rows(), 10u);
  EXPECT_NEAR(res->model.correlation(0, 1), 0.0, 1e-12);
}

TEST(SynthesizeTest, InvalidOptionsRejected) {
  Rng rng(217);
  data::Table t = MakeSynthetic(100, 2, 0.2, &rng);
  DpCopulaOptions opts;
  opts.epsilon = -1.0;
  EXPECT_FALSE(Synthesize(t, opts, &rng).ok());
  data::Table empty{data::Schema()};
  DpCopulaOptions ok_opts;
  EXPECT_FALSE(Synthesize(empty, ok_opts, &rng).ok());
}

// Returning before the first charge means no mechanism drew noise: the
// caller's RNG must come back untouched.
void ExpectRejectedBeforeAnyCharge(const data::Table& t,
                                   const DpCopulaOptions& opts) {
  Rng rng(259);
  const auto res = Synthesize(t, opts, &rng);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  Rng untouched(259);
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
}

TEST(SynthesizeTest, NonFiniteDofRejectedBeforeAnyCharge) {
  // An infinite dof makes every chi-squared scale sqrt(inf / inf) = NaN and
  // every synthetic row identical.
  Rng data_rng(257);
  const data::Table t = MakeSynthetic(500, 2, 0.5, &data_rng);
  DpCopulaOptions opts;
  opts.family = CopulaFamily::kStudentT;
  for (const double dof : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    opts.t_dof = dof;
    SCOPED_TRACE(dof);
    ExpectRejectedBeforeAnyCharge(t, opts);
  }
}

TEST(SynthesizeTest, UnrepresentableRowCountRejectedBeforeAnyCharge) {
  Rng data_rng(261);
  const data::Table t = MakeSynthetic(500, 2, 0.5, &data_rng);
  for (const double factor : {std::numeric_limits<double>::infinity(), 1e30}) {
    DpCopulaOptions opts;
    opts.oversample_factor = factor;
    SCOPED_TRACE(factor);
    ExpectRejectedBeforeAnyCharge(t, opts);
  }
  // rows x factor at or past 2^63, the first value llround cannot return.
  for (const std::size_t rows :
       {std::size_t{1} << 63, std::numeric_limits<std::size_t>::max(),
        static_cast<std::size_t>(std::numeric_limits<long long>::max())}) {
    DpCopulaOptions opts;
    opts.num_synthetic_rows = rows;
    SCOPED_TRACE(rows);
    ExpectRejectedBeforeAnyCharge(t, opts);
  }
  // 2^62 rows at factor 1: llround holds it, but no table column can
  // (copula::kMaxSampleRows); refused before the fit, not after it.
  for (const double factor : {1.0, 2.0}) {
    DpCopulaOptions opts;
    opts.num_synthetic_rows = std::size_t{1} << 62;
    opts.oversample_factor = factor;
    SCOPED_TRACE(factor);
    ExpectRejectedBeforeAnyCharge(t, opts);
  }
}

TEST(SynthesizeTest, OutOfDomainInputRejected) {
  Rng rng(219);
  data::Table t(data::Schema({{"a", 5}, {"b", 5}}));
  ASSERT_TRUE(t.AppendRow({4, 7}).ok());  // 7 outside domain.
  DpCopulaOptions opts;
  EXPECT_FALSE(Synthesize(t, opts, &rng).ok());
}

TEST(SynthesizeTest, DworkMarginalsAlsoWork) {
  Rng rng(221);
  data::Table t = MakeSynthetic(2000, 2, 0.5, &rng);
  DpCopulaOptions opts;
  opts.marginal_method = marginals::MarginalMethod::kDwork;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->synthetic.Validate().ok());
}

class SynthesizeEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(SynthesizeEpsilonSweep, AlwaysProducesValidOutput) {
  Rng rng(223);
  data::Table t = MakeSynthetic(3000, 4, 0.4, &rng);
  DpCopulaOptions opts;
  opts.epsilon = GetParam();
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok()) << "epsilon " << GetParam();
  EXPECT_TRUE(res->synthetic.Validate().ok());
  EXPECT_NEAR(res->budget.spent(), GetParam(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SynthesizeEpsilonSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0));

TEST(SynthesizeTest, OversampleFactorScalesRows) {
  Rng rng(239);
  data::Table t = MakeSynthetic(1000, 2, 0.5, &rng);
  DpCopulaOptions opts;
  opts.oversample_factor = 4.0;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->synthetic.num_rows(), 4000u);
  // Budget unaffected — oversampling is post-processing.
  EXPECT_NEAR(res->budget.spent(), opts.epsilon, 1e-9);
  opts.oversample_factor = 0.0;
  EXPECT_FALSE(Synthesize(t, opts, &rng).ok());
}

TEST(SynthesizeTest, StudentTFamilyWithFixedDof) {
  Rng rng(241);
  data::Table t = MakeSynthetic(3000, 2, 0.6, &rng);
  DpCopulaOptions opts;
  opts.family = CopulaFamily::kStudentT;
  opts.t_dof = 4.0;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->model.family, CopulaFamily::kStudentT);
  EXPECT_DOUBLE_EQ(res->model.t_dof, 4.0);
  EXPECT_TRUE(res->synthetic.Validate().ok());
  // Fixed dof consumes no extra budget.
  EXPECT_NEAR(res->budget.spent(), opts.epsilon, 1e-9);
}

TEST(SynthesizeTest, StudentTFamilyWithPrivateDof) {
  Rng rng(243);
  data::Table t = MakeSynthetic(5000, 2, 0.6, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 5.0;
  opts.family = CopulaFamily::kStudentT;
  opts.t_dof = 0.0;  // Estimate privately.
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->model.family, CopulaFamily::kStudentT);
  EXPECT_GT(res->model.t_dof, 0.0);
  EXPECT_NEAR(res->budget.spent(), opts.epsilon, 1e-9);
}

TEST(SynthesizeTest, AutoAicFamilySelectionRuns) {
  Rng rng(245);
  data::Table t = MakeSynthetic(5000, 2, 0.6, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 5.0;
  opts.family = CopulaFamily::kAutoAic;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  // Either family may win; the result must be valid and fully charged.
  EXPECT_TRUE(res->synthetic.Validate().ok());
  EXPECT_NEAR(res->budget.spent(), opts.epsilon, 1e-9);
}

TEST(SynthesizeTest, EmpiricalFamilyEndToEnd) {
  Rng rng(253);
  data::Table t = MakeSynthetic(8000, 2, 0.7, &rng);
  DpCopulaOptions opts;
  opts.epsilon = 10.0;
  opts.family = CopulaFamily::kEmpirical;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->model.family, CopulaFamily::kEmpirical);
  EXPECT_TRUE(res->synthetic.Validate().ok());
  EXPECT_EQ(res->synthetic.num_rows(), 8000u);
  EXPECT_NEAR(res->budget.spent(), 10.0, 1e-9);
  // Dependence preserved at the grid resolution.
  auto tau_orig = stats::KendallTau(t.column(0), t.column(1));
  auto tau_synth =
      stats::KendallTau(res->synthetic.column(0), res->synthetic.column(1));
  EXPECT_NEAR(*tau_synth, *tau_orig, 0.15);
}

TEST(SynthesizeTest, EmpiricalFamilyRejectsHighDimensions) {
  Rng rng(255);
  data::Table t = MakeSynthetic(500, 12, 0.1, &rng, 20);
  DpCopulaOptions opts;
  opts.family = CopulaFamily::kEmpirical;  // 8^12 = 2^36 cells: refused.
  EXPECT_EQ(Synthesize(t, opts, &rng).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SynthesizeTest, TinyTableFallsBackToGaussianFamily) {
  Rng rng(247);
  data::Table t = MakeSynthetic(20, 2, 0.5, &rng);
  DpCopulaOptions opts;
  opts.family = CopulaFamily::kAutoAic;
  auto res = Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->model.family, CopulaFamily::kGaussian);
}

void ExpectSameBytes(const data::Table& got, const data::Table& want) {
  EXPECT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (std::size_t j = 0; j < got.num_columns(); ++j) {
    EXPECT_EQ(std::memcmp(got.column(j).data(), want.column(j).data(),
                          got.num_rows() * sizeof(double)),
              0)
        << "column " << j;
  }
}

// Field by field; two grids count as equal when both are present, since
// the grid's cells are not exposed.
void ExpectSameModel(const DpCopulaModel& got, const DpCopulaModel& want) {
  EXPECT_TRUE(got.schema == want.schema);
  EXPECT_EQ(got.marginal_counts, want.marginal_counts);
  EXPECT_EQ(got.correlation.MaxAbsDiff(want.correlation), 0.0);
  EXPECT_EQ(got.family, want.family);
  EXPECT_EQ(got.t_dof, want.t_dof);
  EXPECT_EQ(got.grid != nullptr, want.grid != nullptr);
  EXPECT_EQ(got.fitted_rows, want.fitted_rows);
}

TEST(FitTest, FitThenSampleEqualsSynthesize) {
  // Synthesize is Fit followed by Algorithm 3 on the fitted model, drawn
  // from the same RNG: the two paths release the same bytes and leave the
  // RNG in the same place, for every family, estimator and thread count.
  Rng data_rng(263);
  const data::Table t = MakeSynthetic(300, 3, 0.5, &data_rng, 40);
  struct Family {
    const char* label;
    CopulaFamily family;
    double t_dof;
  };
  const Family families[] = {
      {"gaussian", CopulaFamily::kGaussian, 0.0},
      {"t, dof 5", CopulaFamily::kStudentT, 5.0},
      {"t, estimated dof", CopulaFamily::kStudentT, 0.0},
      {"auto", CopulaFamily::kAutoAic, 0.0},
      {"empirical", CopulaFamily::kEmpirical, 0.0},
  };
  for (const Family& f : families) {
    for (const CorrelationEstimator estimator :
         {CorrelationEstimator::kKendall, CorrelationEstimator::kMle}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(f.label) + ", estimator " +
                     std::to_string(static_cast<int>(estimator)) +
                     ", threads " + std::to_string(threads));
        DpCopulaOptions opts;
        opts.epsilon = 2.0;
        opts.family = f.family;
        opts.t_dof = f.t_dof;
        opts.estimator = estimator;
        opts.num_threads = threads;
        Rng synth_rng(265), fit_rng(265);
        const auto synthesized = Synthesize(t, opts, &synth_rng);
        ASSERT_TRUE(synthesized.ok()) << synthesized.status().ToString();
        const auto fitted = Fit(t, opts, &fit_rng);
        ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
        EXPECT_EQ(fitted->synthetic.num_rows(), 0u);
        EXPECT_NE(fitted->model.family, CopulaFamily::kAutoAic);
        EXPECT_NEAR(fitted->budget.spent(), opts.epsilon, 1e-9);
        const auto sampled = SampleFromModel(fitted->model, 0, &fit_rng);
        ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
        ExpectSameBytes(*sampled, synthesized->synthetic);
        EXPECT_EQ(fit_rng.NextUint64(), synth_rng.NextUint64());
        ExpectSameModel(fitted->model, synthesized->model);
        ExpectSameModel(ModelFromSynthesis(t.schema(), *synthesized),
                        synthesized->model);
      }
    }
  }
}

TEST(HybridTest, PlainDpcopulaWhenNoSmallDomains) {
  Rng rng(225);
  data::Table t = MakeSynthetic(2000, 2, 0.5, &rng);
  HybridOptions opts;
  auto res = SynthesizeHybrid(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_partitions, 1);
  EXPECT_EQ(res->synthetic.num_rows(), 2000u);
}

TEST(HybridTest, PartitionsOnBinaryAttribute) {
  Rng rng(227);
  auto t = data::GenerateUsCensus(5000, &rng);
  ASSERT_TRUE(t.ok());
  HybridOptions opts;
  opts.epsilon = 2.0;
  auto res = SynthesizeHybrid(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_partitions, 2);  // Gender is the only small domain.
  EXPECT_TRUE(res->synthetic.schema() == t->schema());
  EXPECT_TRUE(res->synthetic.Validate().ok());
  // Total rows close to the original (Laplace(1/0.2) noise on two counts).
  EXPECT_NEAR(static_cast<double>(res->synthetic.num_rows()), 5000.0, 200.0);
}

TEST(HybridTest, GenderProportionPreserved) {
  Rng rng(229);
  auto t = data::GenerateUsCensus(10000, &rng);
  ASSERT_TRUE(t.ok());
  HybridOptions opts;
  opts.epsilon = 1.0;
  auto res = SynthesizeHybrid(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  double orig_ones = 0.0, synth_ones = 0.0;
  for (double v : t->column(3)) orig_ones += v;
  for (double v : res->synthetic.column(3)) synth_ones += v;
  EXPECT_NEAR(synth_ones / static_cast<double>(res->synthetic.num_rows()),
              orig_ones / 10000.0, 0.05);
}

TEST(HybridTest, AllSmallDomainsBecomesContingencyTable) {
  Rng rng(231);
  data::Table t(data::Schema({{"a", 2}, {"b", 2}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i % 2),
                             static_cast<double>((i / 2) % 2)})
                    .ok());
  }
  HybridOptions opts;
  opts.epsilon = 5.0;
  auto res = SynthesizeHybrid(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_partitions, 4);
  EXPECT_NEAR(static_cast<double>(res->synthetic.num_rows()), 100.0, 30.0);
  // The oversample factor sizes contingency blocks too.
  Rng again(231);
  opts.inner.oversample_factor = 2.0;
  auto twice = SynthesizeHybrid(t, opts, &again);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->synthetic.num_rows(), 2 * res->synthetic.num_rows());
  EXPECT_EQ(twice->synthetic.column(1).size(), twice->synthetic.num_rows());
}

TEST(HybridTest, ValidatesOptions) {
  Rng rng(233);
  data::Table t = MakeSynthetic(100, 2, 0.2, &rng);
  HybridOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(SynthesizeHybrid(t, opts, &rng).ok());
  opts.epsilon = 1.0;
  // With a small-domain column the hybrid sizes the output itself: a
  // factor that is not positive, or a row count no table column can hold
  // (4e16 gives about 4e18 rows, past the longest column but below the
  // 2^63 llround bound), is refused before the output is allocated.
  data::Table mixed(data::Schema({{"flag", 2}, {"value", 100}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mixed.AppendRow({static_cast<double>(i % 2),
                                 static_cast<double>(i)})
                    .ok());
  }
  for (const double factor : {0.0, -1.0, 1e18, 4e16}) {
    opts.inner.oversample_factor = factor;
    EXPECT_EQ(SynthesizeHybrid(mixed, opts, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << "oversample_factor " << factor;
  }
}

TEST(HybridTest, TooManyPartitionsRejected) {
  Rng rng(235);
  std::vector<data::Attribute> attrs;
  for (int j = 0; j < 14; ++j) {
    attrs.push_back({"b" + std::to_string(j), 2});
  }
  data::Table t{data::Schema(attrs)};
  ASSERT_TRUE(t.AppendRow(std::vector<double>(14, 0.0)).ok());
  HybridOptions opts;  // 2^14 partitions, past kMaxPartitions.
  EXPECT_EQ(SynthesizeHybrid(t, opts, &rng).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(HybridTest, BudgetNeverExceedsEpsilonAcrossPartitions) {
  // Parallel composition: per-partition DPCopula runs each spend
  // eps - eps1, but the hybrid's overall guarantee is eps. Verify the
  // per-partition accountants stay within their allowance by running on a
  // dataset with highly unbalanced partitions.
  Rng rng(249);
  data::Table t(data::Schema({{"flag", 2}, {"value", 100}}));
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(
        t.AppendRow({0.0, static_cast<double>(i % 100)}).ok());
  }
  for (int i = 0; i < 30; ++i) {  // Tiny second partition.
    ASSERT_TRUE(
        t.AppendRow({1.0, static_cast<double>(i % 100)}).ok());
  }
  HybridOptions opts;
  opts.epsilon = 0.5;
  auto res = SynthesizeHybrid(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->epsilon_counts + res->epsilon_copula, 0.5, 1e-12);
  EXPECT_TRUE(res->synthetic.Validate().ok());
}

TEST(HybridTest, SkipsNegativeNoisyCountPartitions) {
  // With a tiny budget the Laplace noise on empty partitions is huge; any
  // partition whose noisy count lands <= 0 must be skipped, never emitted
  // with negative rows.
  Rng rng(251);
  data::Table t(data::Schema({{"flag", 2}, {"value", 50}}));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({0.0, static_cast<double>(i % 50)}).ok());
  }
  // Partition flag=1 is empty.
  int skipped_seen = 0;
  for (int rep = 0; rep < 10; ++rep) {
    HybridOptions opts;
    opts.epsilon = 0.05;
    auto res = SynthesizeHybrid(t, opts, &rng);
    ASSERT_TRUE(res.ok());
    skipped_seen += static_cast<int>(res->num_skipped_partitions);
    EXPECT_TRUE(res->synthetic.Validate().ok());
  }
  // The empty partition should be skipped in at least some repetitions
  // (noisy count <= 0 with probability 1/2).
  EXPECT_GT(skipped_seen, 0);
}

TEST(HybridTest, SmallPartitionSamplesEveryColumn) {
  // Two ~150-row partitions of six independent uniform 100-value columns:
  // each partition is sampled inside one partial tile, and every column of
  // it must be a sample of its own — not a near-constant column left
  // without Gaussian draws. The large budget keeps the margins near uniform
  // and the correlation near the identity.
  Rng rng(253);
  std::vector<data::Attribute> attrs{{"g", 2}};
  for (int j = 0; j < 6; ++j) attrs.push_back({"x" + std::to_string(j), 100});
  data::Table t{data::Schema(attrs)};
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row{static_cast<double>(i % 2)};
    for (int j = 0; j < 6; ++j) {
      row.push_back(static_cast<double>(rng.NextUint64Below(100)));
    }
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  HybridOptions opts;
  opts.epsilon = 100.0;
  auto res = SynthesizeHybrid(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->num_partitions, 2);
  const data::Table& out = res->synthetic;
  for (const double g : {0.0, 1.0}) {
    std::size_t rows = 0;
    for (std::size_t j = 1; j < out.num_columns(); ++j) {
      std::vector<double> values;
      for (std::size_t i = 0; i < out.num_rows(); ++i) {
        if (out.column(0)[i] == g) values.push_back(out.column(j)[i]);
      }
      rows = values.size();
      std::sort(values.begin(), values.end());
      const auto distinct =
          std::unique(values.begin(), values.end()) - values.begin();
      // ~150 uniform draws over 100 values give ~78 distinct values.
      EXPECT_GE(distinct, 50) << "partition " << g << " column " << j;
    }
    EXPECT_GT(rows, 100u);
    EXPECT_LT(rows, 256u);
  }
}

TEST(HybridTest, BrazilCensusEndToEnd) {
  Rng rng(237);
  auto t = data::GenerateBrazilCensus(4000, &rng);
  ASSERT_TRUE(t.ok());
  HybridOptions opts;
  opts.epsilon = 1.0;
  auto res = SynthesizeHybrid(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_partitions, 8);  // gender x disability x nativity.
  EXPECT_TRUE(res->synthetic.schema() == t->schema());
  EXPECT_TRUE(res->synthetic.Validate().ok());
}

// Row counts and column sums of `table` per value of the small columns
// `keys`, keyed by the joined values.
struct PartitionStats {
  std::size_t rows = 0;
  std::vector<double> sums;
  std::vector<double> sums_sq;
};
std::map<std::vector<double>, PartitionStats> StatsByPartition(
    const data::Table& table, const std::vector<std::size_t>& keys) {
  std::map<std::vector<double>, PartitionStats> stats;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    std::vector<double> key;
    for (std::size_t c : keys) key.push_back(table.column(c)[i]);
    PartitionStats& s = stats[key];
    s.sums.resize(table.num_columns());
    s.sums_sq.resize(table.num_columns());
    ++s.rows;
    for (std::size_t j = 0; j < table.num_columns(); ++j) {
      s.sums[j] += table.column(j)[i];
      s.sums_sq[j] += table.column(j)[i] * table.column(j)[i];
    }
  }
  return stats;
}

TEST(HybridTest, OversampledPartitionsKeepTheirRows) {
  // With oversample_factor 2 every partition emits a block of twice its
  // noisy count, every column of it. The noisy counts are the first draws
  // on the partition streams and the inner fits consume the same draws, so
  // each block samples the model of the 1x release: same partitions,
  // twice the rows, and per-partition means of the large columns within
  // sampling error of the 1x release's.
  Rng data_rng(237);
  auto t = data::GenerateBrazilCensus(4000, &data_rng);
  ASSERT_TRUE(t.ok());
  HybridOptions opts;
  Rng rng1(239), rng2(239);
  auto once = SynthesizeHybrid(*t, opts, &rng1);
  opts.inner.oversample_factor = 2.0;
  auto twice = SynthesizeHybrid(*t, opts, &rng2);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  const data::Table& out = twice->synthetic;
  for (std::size_t j = 0; j < out.num_columns(); ++j) {
    EXPECT_EQ(out.column(j).size(), out.num_rows()) << "column " << j;
  }
  EXPECT_EQ(out.num_rows(), 2 * once->synthetic.num_rows());
  EXPECT_TRUE(out.Validate().ok());

  const std::vector<std::size_t> small{1, 2, 3};
  const auto base = StatsByPartition(once->synthetic, small);
  const auto over = StatsByPartition(out, small);
  ASSERT_EQ(base.size(), over.size());
  int compared = 0;
  for (const auto& [key, b] : base) {
    const auto it = over.find(key);
    ASSERT_NE(it, over.end());
    const PartitionStats& o = it->second;
    EXPECT_EQ(o.rows, 2 * b.rows);
    if (b.rows < 200) continue;
    const double n = static_cast<double>(b.rows);
    for (const std::size_t j : std::vector<std::size_t>{0, 4, 5, 6, 7}) {
      const double mean = b.sums[j] / n;
      const double var = std::max(0.0, b.sums_sq[j] / n - mean * mean);
      const double se = std::sqrt(var * (1.0 / n + 1.0 / (2.0 * n)));
      EXPECT_NEAR(o.sums[j] / static_cast<double>(o.rows), mean, 4.0 * se)
          << "column " << j << " partition rows " << b.rows;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(HybridTest, SmallValueOutsideDomainFailsBeforeAnyDraw) {
  // The partition pass refuses such rows with Table::Validate's message
  // (column and domain, never the value) before it charges budget or
  // touches the caller's RNG.
  for (const double bad :
       {-1.0, 0.5, std::numeric_limits<double>::quiet_NaN()}) {
    data::Table t(data::Schema({{"age", 90}, {"gender", 2}, {"income", 200}}));
    Rng data_rng(241);
    for (int i = 0; i < 2000; ++i) {  // 300 bad gender cells.
      const double gender = i % 20 < 3 ? bad : static_cast<double>(i % 2);
      const auto age = static_cast<double>(data_rng.NextUint64Below(90));
      const auto income = static_cast<double>(data_rng.NextUint64Below(200));
      ASSERT_TRUE(t.AppendRow({age, gender, income}).ok());
    }
    Rng rng(243);
    Rng untouched(243);
    auto res = SynthesizeHybrid(t, HybridOptions{}, &rng);
    ASSERT_FALSE(res.ok()) << "value " << bad;
    EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(res.status().message(), t.Validate().message());
    EXPECT_EQ(res.status().message(),
              "column 'gender' has a value outside domain [0, 2)");
    EXPECT_EQ(rng.NextUint64(), untouched.NextUint64()) << "value " << bad;
  }
}

// Production and the copy-filter-concat oracle release the same bytes, or
// fail with the same status. Returns the oracle's release, so a case can
// check that it covers what it claims to.
HybridResult ExpectMatchesReference(const data::Table& t,
                                    const HybridOptions& opts,
                                    std::uint64_t seed) {
  Rng ref_rng(seed);
  auto expected = reference::SynthesizeHybrid(t, opts, &ref_rng);
  const std::uint64_t ref_next = ref_rng.NextUint64();
  for (int threads : {1, 4}) {
    HybridOptions threaded = opts;
    threaded.num_threads = threads;
    Rng rng(seed);
    auto res = SynthesizeHybrid(t, threaded, &rng);
    EXPECT_EQ(res.ok(), expected.ok())
        << "threads=" << threads << ": " << res.status().ToString() << " vs "
        << expected.status().ToString();
    if (!res.ok() || !expected.ok()) {
      EXPECT_EQ(res.status().ToString(), expected.status().ToString());
      continue;
    }
    const data::Table& got = res->synthetic;
    const data::Table& want = expected->synthetic;
    EXPECT_TRUE(got.schema() == want.schema());
    EXPECT_EQ(got.num_rows(), want.num_rows()) << "threads=" << threads;
    for (std::size_t j = 0; j < got.num_columns(); ++j) {
      if (got.column(j).size() != want.column(j).size()) {
        ADD_FAILURE() << "threads=" << threads << " column " << j
                      << " length " << got.column(j).size() << " vs "
                      << want.column(j).size();
        continue;
      }
      EXPECT_EQ(std::memcmp(got.column(j).data(), want.column(j).data(),
                            got.column(j).size() * sizeof(double)),
                0)
          << "threads=" << threads << " column " << j;
    }
    EXPECT_EQ(res->num_partitions, expected->num_partitions);
    EXPECT_EQ(res->num_skipped_partitions, expected->num_skipped_partitions);
    EXPECT_EQ(res->degraded_partitions, expected->degraded_partitions);
    EXPECT_EQ(rng.NextUint64(), ref_next) << "threads=" << threads;
  }
  if (expected.ok()) return std::move(expected).ValueOrDie();
  HybridResult failed;
  failed.synthetic = data::Table(t.schema());
  return failed;
}

TEST(HybridTest, MatchesCopyFilterConcatReference) {
  Rng data_rng(245);
  auto census = data::GenerateBrazilCensus(3000, &data_rng);
  ASSERT_TRUE(census.ok());
  HybridOptions opts;
  {
    SCOPED_TRACE("small columns at positions 1-3");
    ExpectMatchesReference(*census, opts, 11);
  }
  {
    SCOPED_TRACE("small columns last");
    auto last = census->Project({0, 4, 5, 6, 7, 1, 2, 3});
    ASSERT_TRUE(last.ok());
    ExpectMatchesReference(*last, opts, 12);
  }
  {
    SCOPED_TRACE("all columns small (contingency table)");
    auto small = census->Project({1, 2, 3});
    ASSERT_TRUE(small.ok());
    ExpectMatchesReference(*small, opts, 13);
  }
  {
    SCOPED_TRACE("a combination with no rows");
    data::Table t(data::Schema({{"x", 60}, {"g", 3}, {"y", 40}}));
    for (int i = 0; i < 900; ++i) {  // g = 2 never occurs.
      ASSERT_TRUE(t.AppendRow({static_cast<double>(i % 60),
                               static_cast<double>(i % 2),
                               static_cast<double>((i * 7) % 40)})
                      .ok());
    }
    // Its noisy count is Laplace noise alone, positive for about half the
    // seeds; at least one of these must synthesize the empty partition.
    std::size_t empty_rows = 0;
    for (std::uint64_t seed = 14; seed < 20; ++seed) {
      const HybridResult ref = ExpectMatchesReference(t, opts, seed);
      const std::vector<double>& g = ref.synthetic.column(1);
      empty_rows +=
          static_cast<std::size_t>(std::count(g.begin(), g.end(), 2.0));
    }
    EXPECT_GT(empty_rows, 0u);
  }
  {
    SCOPED_TRACE("epsilon 0.05 skips partitions");
    HybridOptions low = opts;
    low.epsilon = 0.05;
    EXPECT_GT(ExpectMatchesReference(*census, low, 20).num_skipped_partitions,
              0);
  }
  {
    // The largest of the 8 partitions holds about 40% of the rows, so its
    // plan samples two or more shards into its block, and at 4 threads its
    // fit and sampling loops fan out from inside a pool task.
    SCOPED_TRACE("24,000 rows: partitions sample several shards");
    Rng big_rng(246);
    auto big = data::GenerateBrazilCensus(24000, &big_rng);
    ASSERT_TRUE(big.ok());
    const HybridResult ref = ExpectMatchesReference(*big, opts, 22);
    std::map<std::vector<double>, std::size_t> block_rows;
    for (std::size_t r = 0; r < ref.synthetic.num_rows(); ++r) {
      ++block_rows[{ref.synthetic.column(1)[r], ref.synthetic.column(2)[r],
                    ref.synthetic.column(3)[r]}];
    }
    std::size_t largest = 0;
    for (const auto& [combo, rows] : block_rows) {
      largest = std::max(largest, rows);
    }
    EXPECT_GT(largest, copula::kSamplerShardRows);
    SCOPED_TRACE("inner student-t, dof 5");
    HybridOptions student_t = opts;
    student_t.inner.family = CopulaFamily::kStudentT;
    student_t.inner.t_dof = 5.0;
    ExpectMatchesReference(*big, student_t, 23);
    ExpectMatchesReference(*census, student_t, 24);
  }
  {
    SCOPED_TRACE("core.correlation_estimate armed 1in2");
    ASSERT_TRUE(failpoint::Registry::Global()
                    .Arm("core.correlation_estimate", "1in2")
                    .ok());
    const HybridResult ref = ExpectMatchesReference(*census, opts, 21);
    failpoint::Registry::Global().DisarmAll();
    EXPECT_GT(ref.degraded_partitions, 0);
  }
}

}  // namespace
}  // namespace dpcopula::core
