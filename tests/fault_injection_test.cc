// Fault-injection suite: sweeps every compiled-in fail point and asserts
// the fail-closed contract — each injected fault either recovers with an
// explicit, recorded accuracy downgrade or errors out with nothing
// released; recovered output is bit-identical at every thread count under
// the same fault schedule; and the charged==epsilon release gate holds on
// every recovered path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "core/model_io.h"
#include "core/streaming.h"
#include "data/csv.h"
#include "data/generator.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/psd_repair.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/registry.h"
#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dpcopula {
namespace {

using failpoint::Mode;
using failpoint::Registry;
using failpoint::Spec;

[[maybe_unused]] data::Table MakeSynthetic(std::size_t n, std::size_t m, double rho, Rng* rng,
                          std::int64_t domain = 50) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(
        data::MarginSpec::Gaussian("x" + std::to_string(j), domain));
  }
  auto corr = data::Equicorrelation(m, rho);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

[[maybe_unused]] bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

[[maybe_unused]] std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

[[maybe_unused]] void ExpectTablesIdentical(const data::Table& x, const data::Table& y) {
  ASSERT_EQ(x.num_rows(), y.num_rows());
  ASSERT_EQ(x.num_columns(), y.num_columns());
  for (std::size_t j = 0; j < x.num_columns(); ++j) {
    EXPECT_EQ(x.column(j), y.column(j)) << "column " << j;
  }
}

[[maybe_unused]] void ExpectMatricesIdentical(const linalg::Matrix& a,
                             const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

[[maybe_unused]] std::int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// Degradation counters only count when the obs layer is compiled in; with
// -DDPCOPULA_OBS=OFF every counter reads 0 and the delta assertions below
// must not fire (the recovery behavior itself is still asserted).
constexpr bool kCountersLive = DPCOPULA_OBS_ENABLED != 0;

// Every test arms sites, so the fixture guarantees a clean slate (and
// metrics, which the degradation counters need) on both sides.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ObsConfig config;
    config.metrics = true;
    obs::SetObsConfig(config);
    Registry::Global().DisarmAll();
  }
  void TearDown() override {
    Registry::Global().DisarmAll();
    obs::SetObsConfig(obs::ObsConfig{});
  }
};

// ---------------------------------------------------------------------------
// Registry / trigger unit tests (valid with or without compiled-in sites).

TEST(FailpointSpecTest, ParsesAllForms) {
  Spec spec;
  EXPECT_TRUE(failpoint::ParseSpec("off", &spec));
  EXPECT_EQ(spec.mode, Mode::kOff);
  EXPECT_TRUE(failpoint::ParseSpec("always", &spec));
  EXPECT_EQ(spec.mode, Mode::kAlways);
  EXPECT_TRUE(failpoint::ParseSpec("once", &spec));
  EXPECT_EQ(spec.mode, Mode::kOnce);
  EXPECT_TRUE(failpoint::ParseSpec("1in4", &spec));
  EXPECT_EQ(spec.mode, Mode::kOneIn);
  EXPECT_EQ(spec.param, 4u);
  EXPECT_TRUE(failpoint::ParseSpec("after17", &spec));
  EXPECT_EQ(spec.mode, Mode::kAfterN);
  EXPECT_EQ(spec.param, 17u);

  EXPECT_FALSE(failpoint::ParseSpec("", &spec));
  EXPECT_FALSE(failpoint::ParseSpec("sometimes", &spec));
  EXPECT_FALSE(failpoint::ParseSpec("1in0", &spec));
  EXPECT_FALSE(failpoint::ParseSpec("1in", &spec));
  EXPECT_FALSE(failpoint::ParseSpec("after", &spec));
  EXPECT_FALSE(failpoint::ParseSpec("afterx", &spec));
}

TEST_F(FaultInjectionTest, DeterministicTriggers) {
  failpoint::FailPoint* site = Registry::Global().GetSite("test.trigger");
  EXPECT_FALSE(site->armed());
  EXPECT_FALSE(site->EvaluateAt(0));

  Registry::Global().Arm("test.trigger", Spec{Mode::kOnce, 0});
  EXPECT_TRUE(site->EvaluateAt(0));
  EXPECT_FALSE(site->EvaluateAt(1));
  EXPECT_TRUE(site->EvaluateAt(0));  // Index-based, not sticky.

  Registry::Global().Arm("test.trigger", Spec{Mode::kOneIn, 3});
  EXPECT_TRUE(site->EvaluateAt(0));
  EXPECT_FALSE(site->EvaluateAt(1));
  EXPECT_FALSE(site->EvaluateAt(2));
  EXPECT_TRUE(site->EvaluateAt(3));

  Registry::Global().Arm("test.trigger", Spec{Mode::kAfterN, 2});
  EXPECT_FALSE(site->EvaluateAt(1));
  EXPECT_TRUE(site->EvaluateAt(2));
  EXPECT_TRUE(site->EvaluateAt(100));

  EXPECT_GT(site->fired_count(), 0u);
  Registry::Global().Disarm("test.trigger");
  EXPECT_FALSE(site->armed());
  EXPECT_FALSE(site->EvaluateAt(0));
}

TEST_F(FaultInjectionTest, ArmedGateAndArmedSites) {
  EXPECT_FALSE(failpoint::internal::AnyArmed());
  ASSERT_TRUE(Registry::Global().Arm("test.gate", "always").ok());
  EXPECT_TRUE(failpoint::internal::AnyArmed());
  const auto armed = Registry::Global().ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "test.gate"), armed.end());
  Registry::Global().DisarmAll();
  EXPECT_FALSE(failpoint::internal::AnyArmed());
}

TEST_F(FaultInjectionTest, ArmRejectsBadSpecStrings) {
  EXPECT_FALSE(Registry::Global().Arm("test.bad", "flaky").ok());
  EXPECT_FALSE(failpoint::internal::AnyArmed());
}

TEST_F(FaultInjectionTest, ArmFromEnvParsesEntryList) {
  ASSERT_TRUE(Registry::Global()
                  .ArmFromEnv("test.env.a=once,test.env.b=1in5")
                  .ok());
  EXPECT_TRUE(Registry::Global().GetSite("test.env.a")->armed());
  EXPECT_TRUE(Registry::Global().GetSite("test.env.b")->armed());
  // Bad entries are skipped (reported on stderr), good ones still arm.
  EXPECT_FALSE(
      Registry::Global().ArmFromEnv("bogus;test.env.c=always").ok());
  EXPECT_TRUE(Registry::Global().GetSite("test.env.c")->armed());
}

#if DPCOPULA_FAILPOINTS_ENABLED

TEST_F(FaultInjectionTest, ScopedContextDrivesImplicitIndex) {
  ASSERT_TRUE(Registry::Global().Arm("test.ctx", "1in2").ok());
  failpoint::FailPoint* site = Registry::Global().GetSite("test.ctx");
  {
    failpoint::ScopedContext ctx(4);  // 4 % 2 == 0 -> fires.
    EXPECT_TRUE(site->Evaluate());
    {
      failpoint::ScopedContext inner(3);  // Innermost wins; 3 % 2 != 0.
      EXPECT_FALSE(site->Evaluate());
    }
    EXPECT_TRUE(site->Evaluate());  // Back to 4.
  }
}

// ---------------------------------------------------------------------------
// Per-site scenarios. Together these exercise every name in KnownSites()
// (the coverage test at the bottom enforces that).

TEST_F(FaultInjectionTest, CsvReadOpenFailsClosed) {
  const std::string path = "/tmp/dpc_fault_csv_open.csv";
  Rng rng(11);
  data::Table t = MakeSynthetic(20, 2, 0.0, &rng);
  ASSERT_TRUE(data::WriteCsv(t, path).ok());
  ASSERT_TRUE(Registry::Global().Arm("csv.read.open", "always").ok());
  auto read = data::ReadCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("csv.read.open"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, CsvRowInjectionQuarantinedWhenTolerant) {
  const std::string path = "/tmp/dpc_fault_csv_row.csv";
  Rng rng(12);
  data::Table t = MakeSynthetic(10, 2, 0.0, &rng);
  ASSERT_TRUE(data::WriteCsv(t, path).ok());
  ASSERT_TRUE(Registry::Global().Arm("csv.read.row", "1in5").ok());

  // Strict: the first injected row (index 0) fails the read.
  EXPECT_FALSE(data::ReadCsv(path).ok());

  // Tolerant: rows 0 and 5 are quarantined and counted as injected.
  data::ReadCsvOptions options;
  options.max_bad_rows = 2;
  auto read = data::ReadCsvTolerant(path, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->stats.bad_rows, 2u);
  EXPECT_EQ(read->stats.bad_injected, 2u);
  EXPECT_EQ(read->stats.rows_kept, 8u);
  EXPECT_EQ(read->table.num_rows(), 8u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, AtomicWriteFaultLeavesNoArtifacts) {
  const std::string path = "/tmp/dpc_fault_atomic_write.csv";
  std::remove(path.c_str());
  Rng rng(13);
  data::Table t = MakeSynthetic(5, 2, 0.0, &rng);
  ASSERT_TRUE(Registry::Global().Arm("atomicio.write", "always").ok());
  Status s = data::WriteCsv(t, path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("atomicio.write"), std::string::npos);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// The obs artifacts share the release's atomic writer: a failed write
// leaves no report at all, never a truncated one.
TEST_F(FaultInjectionTest, RunReportWriteFaultLeavesNoFile) {
  const std::string path = "/tmp/dpc_fault_run_report.json";
  std::remove(path.c_str());
  ASSERT_TRUE(Registry::Global().Arm("atomicio.write", "always").ok());
  Status s = obs::WriteRunReport(path, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("atomicio.write"), std::string::npos);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, RenameFaultPreservesOldFile) {
  // A crash between writing the tmp and renaming it must leave the existing
  // target byte-for-byte intact (and the durable tmp behind for forensics).
  const std::string path = "/tmp/dpc_fault_atomic_rename.txt";
  core::DpCopulaModel model;
  model.schema = data::Schema({{"a", 3}, {"b", 3}});
  model.marginal_counts = {{1.0, 2.0, 3.0}, {3.0, 2.0, 1.0}};
  model.correlation = linalg::Matrix::Identity(2);
  model.fitted_rows = 6;
  ASSERT_TRUE(core::SaveModel(model, path).ok());
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  model.fitted_rows = 999;
  ASSERT_TRUE(Registry::Global().Arm("atomicio.rename", "always").ok());
  Status s = core::SaveModel(model, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(ReadFile(path), original);
  EXPECT_TRUE(FileExists(path + ".tmp"));

  // After the fault clears, the save lands and round-trips.
  Registry::Global().DisarmAll();
  ASSERT_TRUE(core::SaveModel(model, path).ok());
  auto loaded = core::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fitted_rows, 999u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(FaultInjectionTest, ModelLoadOpenFailsClosed) {
  const std::string path = "/tmp/dpc_fault_model_load.txt";
  core::DpCopulaModel model;
  model.schema = data::Schema({{"a", 2}, {"b", 2}});
  model.marginal_counts = {{1.0, 1.0}, {1.0, 1.0}};
  model.correlation = linalg::Matrix::Identity(2);
  model.fitted_rows = 2;
  ASSERT_TRUE(core::SaveModel(model, path).ok());
  ASSERT_TRUE(Registry::Global().Arm("model.load.open", "always").ok());
  auto loaded = core::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("model.load.open"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, CholeskyInjectionFailsClosed) {
  ASSERT_TRUE(Registry::Global().Arm("linalg.cholesky", "always").ok());
  auto chol = linalg::CholeskyDecompose(linalg::Matrix::Identity(3));
  ASSERT_FALSE(chol.ok());
  EXPECT_NE(chol.status().message().find("linalg.cholesky"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, PsdRepairInjectionFailsClosed) {
  ASSERT_TRUE(Registry::Global().Arm("linalg.psd_repair", "always").ok());
  linalg::Matrix bad(2, 2);
  bad(0, 0) = bad(1, 1) = 1.0;
  bad(0, 1) = bad(1, 0) = 1.2;  // Not a valid correlation -> repair path.
  auto repaired = linalg::EnsureCorrelationMatrix(bad);
  ASSERT_FALSE(repaired.ok());
}

TEST_F(FaultInjectionTest, EigenRetryRecoversFromOneNonConvergence) {
  // Recovery policy: one EigenSym non-convergence inside PSD repair retries
  // with diagonal shrinkage. Armed "once", the first call fails and the
  // retry succeeds; armed "always", the repair fails closed.
  linalg::Matrix bad(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) bad(i, j) = (i == j) ? 1.0 : 0.95;
  }
  bad(0, 1) = bad(1, 0) = 1.1;  // Off-manifold: forces the eigen repair.
  const std::int64_t retries_before = CounterValue("linalg.eigen_retries");

  ASSERT_TRUE(
      Registry::Global().Arm("linalg.eigen.converge", "once").ok());
  auto repaired = linalg::EnsureCorrelationMatrix(bad);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(linalg::IsPositiveDefinite(*repaired));
  if (kCountersLive) {
    EXPECT_EQ(CounterValue("linalg.eigen_retries"), retries_before + 1);
  }

  Registry::Global().DisarmAll();
  ASSERT_TRUE(
      Registry::Global().Arm("linalg.eigen.converge", "always").ok());
  auto failed = linalg::EnsureCorrelationMatrix(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNumericalError);
}

TEST_F(FaultInjectionTest, MleAveragesSurvivingPartitions) {
  Rng data_rng(21);
  data::Table t = MakeSynthetic(400, 3, 0.4, &data_rng);
  copula::MleEstimatorOptions options;
  options.num_partitions = 8;

  // Fault on partitions 0 and 4; policy admits up to 2 failures.
  ASSERT_TRUE(Registry::Global().Arm("mle.partition_fit", "1in4").ok());
  options.max_failed_partitions = 2;
  const std::int64_t failures_before =
      CounterValue("mle.partition_fit_failures");
  Rng rng_a(22);
  auto est = copula::EstimateMleCorrelation(t, 2.0, &rng_a, options);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->failed_partitions, 2);
  if (kCountersLive) {
    EXPECT_EQ(CounterValue("mle.partition_fit_failures"),
              failures_before + 2);
  }
  // Scale reflects the 6 survivors, not the 8 partitions: a *larger* noise
  // scale, never a smaller one (that would be a privacy bug).
  const double num_pairs = 3.0;
  EXPECT_DOUBLE_EQ(est->laplace_scale, num_pairs * 2.0 / (6.0 * 2.0));

  // Tighter policy: the same schedule now exceeds the budget -> fail closed.
  options.max_failed_partitions = 1;
  Rng rng_b(22);
  EXPECT_FALSE(copula::EstimateMleCorrelation(t, 2.0, &rng_b, options).ok());
}

TEST_F(FaultInjectionTest, MleRecoveryIsThreadCountInvariant) {
  Rng data_rng(23);
  data::Table t = MakeSynthetic(400, 3, 0.4, &data_rng);
  ASSERT_TRUE(Registry::Global().Arm("mle.partition_fit", "1in3").ok());
  copula::MleEstimatorOptions options;
  options.num_partitions = 9;
  options.max_failed_partitions = 3;
  std::vector<linalg::Matrix> results;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    Rng rng(24);
    auto est = copula::EstimateMleCorrelation(t, 2.0, &rng, options);
    ASSERT_TRUE(est.ok()) << "threads=" << threads;
    EXPECT_EQ(est->failed_partitions, 3) << "threads=" << threads;
    results.push_back(est->correlation);
  }
  ExpectMatricesIdentical(results[0], results[1]);
  ExpectMatricesIdentical(results[0], results[2]);
}

TEST_F(FaultInjectionTest, SynthesizeDegradesCorrelationWhenAllowed) {
  Rng data_rng(31);
  data::Table t = MakeSynthetic(300, 3, 0.5, &data_rng);
  core::DpCopulaOptions options;
  options.epsilon = 2.0;
  ASSERT_TRUE(
      Registry::Global().Arm("core.correlation_estimate", "always").ok());

  // Default: fail closed, nothing released.
  Rng rng_a(32);
  auto failed = core::Synthesize(t, options, &rng_a);
  ASSERT_FALSE(failed.ok());

  // Opted in: independent-margins fallback with the downgrade recorded and
  // the full budget still consumed (charged, never refunded).
  options.allow_degraded_correlation = true;
  const std::int64_t degraded_before =
      CounterValue("core.degraded_correlations");
  Rng rng_b(32);
  auto res = core::Synthesize(t, options, &rng_b);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->correlation_degraded);
  ExpectMatricesIdentical(res->model.correlation, linalg::Matrix::Identity(3));
  EXPECT_NEAR(res->budget.spent(), options.epsilon, 1e-9);
  EXPECT_EQ(res->synthetic.num_rows(), t.num_rows());
  if (kCountersLive) {
    EXPECT_EQ(CounterValue("core.degraded_correlations"),
              degraded_before + 1);
  }
}

TEST_F(FaultInjectionTest, HybridPartitionFaultFailsClosed) {
  Rng data_rng(41);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Bernoulli("s", 0.5),
      data::MarginSpec::Gaussian("x", 50),
      data::MarginSpec::Gaussian("y", 50)};
  auto corr = data::Equicorrelation(3, 0.3);
  data::Table t = *data::GenerateGaussianDependent(specs, *corr, 400,
                                                   &data_rng);
  ASSERT_TRUE(
      Registry::Global().Arm("hybrid.partition.synthesize", "once").ok());
  core::HybridOptions options;
  options.epsilon = 2.0;
  Rng rng(42);
  auto res = core::SynthesizeHybrid(t, options, &rng);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("hybrid.partition.synthesize"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, HybridDegradedPartitionsAreCountedAndIdentical) {
  Rng data_rng(43);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Bernoulli("s", 0.5),
      data::MarginSpec::Gaussian("x", 50),
      data::MarginSpec::Gaussian("y", 50)};
  auto corr = data::Equicorrelation(3, 0.3);
  data::Table t = *data::GenerateGaussianDependent(specs, *corr, 400,
                                                   &data_rng);
  // Degrade the correlation estimate in even-indexed partitions only. The
  // ScopedContext keys the generic site to the partition index, so the same
  // partitions degrade at every thread count.
  ASSERT_TRUE(
      Registry::Global().Arm("core.correlation_estimate", "1in2").ok());
  std::vector<data::Table> outputs;
  std::int64_t degraded = -1;
  for (int threads : {1, 4}) {
    core::HybridOptions options;
    options.epsilon = 2.0;
    options.num_threads = threads;
    Rng rng(44);
    auto res = core::SynthesizeHybrid(t, options, &rng);
    ASSERT_TRUE(res.ok()) << "threads=" << threads << ": "
                          << res.status().ToString();
    EXPECT_GT(res->degraded_partitions, 0) << "threads=" << threads;
    EXPECT_NEAR(res->budget.spent(), options.epsilon, 1e-9);
    if (degraded < 0) {
      degraded = res->degraded_partitions;
    } else {
      EXPECT_EQ(res->degraded_partitions, degraded);
    }
    outputs.push_back(std::move(res->synthetic));
  }
  ExpectTablesIdentical(outputs[0], outputs[1]);
}

TEST_F(FaultInjectionTest, KendallPairFaultPropagatesFirstFailure) {
  Rng data_rng(91);
  data::Table t = MakeSynthetic(200, 4, 0.3, &data_rng);  // C(4,2) = 6 pairs.
  // Pairs 0 and 3 fail. The estimator must surface the lowest-index pair's
  // status — with the fail-point site name, never the old generic
  // "pairwise Kendall computation failed" — and the propagated status must
  // be identical at every thread count.
  ASSERT_TRUE(Registry::Global().Arm("kendall.pair_tau", "1in3").ok());
  copula::KendallEstimatorOptions options;
  options.subsample = false;
  std::string first_message;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    Rng rng(92);
    auto est = copula::EstimateKendallCorrelation(t, 1.0, &rng, options);
    ASSERT_FALSE(est.ok()) << "threads=" << threads;
    EXPECT_NE(est.status().message().find("kendall.pair_tau"),
              std::string::npos)
        << est.status().ToString();
    if (first_message.empty()) {
      first_message = est.status().message();
    } else {
      EXPECT_EQ(est.status().message(), first_message)
          << "threads=" << threads;
    }
  }
}

TEST_F(FaultInjectionTest, SamplerRowFaultFailsClosed) {
  Rng data_rng(51);
  data::Table t = MakeSynthetic(300, 2, 0.4, &data_rng);
  ASSERT_TRUE(Registry::Global().Arm("sampler.row", "after50").ok());
  core::DpCopulaOptions options;
  options.epsilon = 2.0;
  Rng rng(52);
  auto res = core::Synthesize(t, options, &rng);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("sampler.row"), std::string::npos);
}

TEST_F(FaultInjectionTest, DispatchFaultFallsBackSequentially) {
  Rng data_rng(61);
  // > 2 * kSamplerShardRows so the sampler actually produces multiple
  // shards; a single shard takes the inline path before the dispatch site.
  data::Table t = MakeSynthetic(10000, 2, 0.4, &data_rng);
  core::DpCopulaOptions options;
  options.epsilon = 2.0;
  options.num_threads = 8;

  Rng rng_a(62);
  auto healthy = core::Synthesize(t, options, &rng_a);
  ASSERT_TRUE(healthy.ok());

  ASSERT_TRUE(Registry::Global().Arm("parallel.dispatch", "always").ok());
  const std::int64_t fallbacks_before =
      CounterValue("parallel.dispatch_fallbacks");
  Rng rng_b(62);
  auto degraded = core::Synthesize(t, options, &rng_b);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  if (kCountersLive) {
    EXPECT_GT(CounterValue("parallel.dispatch_fallbacks"), fallbacks_before);
  }
  // The fallback only loses parallel wall-clock; output bytes are the same.
  ExpectTablesIdentical(healthy->synthetic, degraded->synthetic);
}

TEST_F(FaultInjectionTest, StreamingRejectsPoisonedBatchWithoutCorruption) {
  Rng rng(71);
  data::Table batch = MakeSynthetic(500, 2, 0.4, &rng, 100);
  core::StreamingSynthesizer::Options options;
  options.epsilon_per_batch = 10.0;
  core::StreamingSynthesizer s(batch.schema(), options);
  ASSERT_TRUE(s.Ingest(batch, &rng).ok());
  auto before = s.CurrentModel();
  ASSERT_TRUE(before.ok());
  const double weight_before = s.accumulated_weight();

  // Batch index 1 is poisoned; the merge rejects it, the accumulated model
  // is untouched, and later batches still land.
  ASSERT_TRUE(
      Registry::Global().Arm("streaming.ingest.merge", "after1").ok());
  const std::int64_t rejected_before =
      CounterValue("streaming.batches_rejected");
  Status poisoned = s.Ingest(MakeSynthetic(500, 2, 0.4, &rng, 100), &rng);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_NE(poisoned.message().find("streaming.ingest.merge"),
            std::string::npos);
  if (kCountersLive) {
    EXPECT_EQ(CounterValue("streaming.batches_rejected"),
              rejected_before + 1);
  }
  EXPECT_EQ(s.num_batches(), 1u);
  EXPECT_EQ(s.accumulated_weight(), weight_before);
  auto after = s.CurrentModel();
  ASSERT_TRUE(after.ok());
  ExpectMatricesIdentical(before->correlation, after->correlation);

  Registry::Global().DisarmAll();
  ASSERT_TRUE(s.Ingest(MakeSynthetic(500, 2, 0.4, &rng, 100), &rng).ok());
  EXPECT_EQ(s.num_batches(), 2u);
}

TEST_F(FaultInjectionTest, StreamingRejectsBatchWhoseFitFails) {
  Rng rng(73);
  data::Table batch = MakeSynthetic(500, 2, 0.4, &rng, 100);
  core::StreamingSynthesizer::Options options;
  options.epsilon_per_batch = 10.0;
  core::StreamingSynthesizer s(batch.schema(), options);
  ASSERT_TRUE(s.Ingest(batch, &rng).ok());
  // Poison the *fit* (not the merge): the inner Synthesize fails before any
  // state is staged.
  ASSERT_TRUE(
      Registry::Global().Arm("core.correlation_estimate", "always").ok());
  EXPECT_FALSE(s.Ingest(MakeSynthetic(500, 2, 0.4, &rng, 100), &rng).ok());
  EXPECT_EQ(s.num_batches(), 1u);
}

// ---------------------------------------------------------------------------
// serve.*: the serving daemon's failure sites. Accept-path faults drop the
// connection before any request is read; reload faults keep the previous
// model version serving; sample faults answer ERR 500 and leave the
// connection (and the next request) healthy.

serve::ServerOptions LoopbackOptions() {
  serve::ServerOptions options;
  options.num_workers = 1;
  return options;
}

std::string SaveServeModel(const char* name) {
  Rng rng(4242);
  data::Table table = MakeSynthetic(400, 2, 0.4, &rng);
  core::DpCopulaOptions opts;
  opts.epsilon = 5.0;
  auto res = core::Synthesize(table, opts, &rng);
  core::DpCopulaModel model =
      core::ModelFromSynthesis(table.schema(), *res);
  const std::string path =
      std::string("/tmp/dpcopula_fault_serve_") + name + ".model";
  EXPECT_TRUE(core::SaveModel(model, path).ok());
  return path;
}

// Minimal blocking loopback client (line protocol; csv multi-line reads).
class ServeClient {
 public:
  explicit ServeClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ServeClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }
  std::string Roundtrip(const std::string& request) {
    const std::string out = request + "\n";
    if (::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(out.size())) {
      return "";
    }
    std::string line;
    if (!ReadLine(&line)) return "";
    std::string response = line + "\n";
    if (line.rfind("OK SAMPLE", 0) == 0 &&
        line.find(" csv") != std::string::npos) {
      while (ReadLine(&line)) {
        response += line + "\n";
        if (line == "END") break;
      }
    }
    return response;
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  int fd_ = -1;
  std::string buffer_;
};

TEST_F(FaultInjectionTest, ServeAcceptFaultDropsConnectionThenRecovers) {
  const std::string path = SaveServeModel("accept");
  auto created = serve::Server::Create(LoopbackOptions());
  ASSERT_TRUE(created.ok());
  auto server = created.MoveValueUnsafe();
  ASSERT_TRUE(server->AddModel("m", path).ok());
  ASSERT_TRUE(Registry::Global().Arm("serve.accept", "once").ok());
  // The faulted accept closes the connection before reading anything: the
  // client observes EOF, never a hang or a partial response.
  ServeClient dropped(server->port());
  ASSERT_TRUE(dropped.connected());
  EXPECT_EQ(dropped.Roundtrip("PING"), "");
  // "once" has fired; the next connection is served normally.
  ServeClient healthy(server->port());
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(healthy.Roundtrip("PING"), "OK PONG\n");
  EXPECT_GE(server->GetStats().errors, 1u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, ServeReloadFaultKeepsOldModelServing) {
  const std::string path = SaveServeModel("reload");
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", path).ok());
  auto before = registry.Get("m");
  ASSERT_TRUE(before.ok());
  const std::size_t old_rows = (*before)->model.fitted_rows;

  // Publish a changed file, then fail every reload attempt.
  auto changed = core::LoadModel(path);
  ASSERT_TRUE(changed.ok());
  changed->fitted_rows = old_rows + 111;
  ASSERT_TRUE(core::SaveModel(*changed, path).ok());
  ASSERT_TRUE(Registry::Global().Arm("serve.model_reload", "always").ok());

  // The explicit reload surfaces the injected fault...
  auto forced = registry.CheckReload("m");
  ASSERT_FALSE(forced.ok());
  EXPECT_NE(forced.status().message().find("serve.model_reload"),
            std::string::npos);
  // ...while the serving path degrades to the previous version instead of
  // failing: availability beats freshness.
  auto during = registry.Get("m");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ((*during)->model.fitted_rows, old_rows);

  Registry::Global().DisarmAll();
  auto reloaded = registry.CheckReload("m");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(*reloaded);
  auto after = registry.Get("m");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->model.fitted_rows, old_rows + 111);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, ServeSampleFaultAnswers500AndConnectionSurvives) {
  const std::string path = SaveServeModel("sample");
  auto created = serve::Server::Create(LoopbackOptions());
  ASSERT_TRUE(created.ok());
  auto server = created.MoveValueUnsafe();
  ASSERT_TRUE(server->AddModel("m", path).ok());
  ASSERT_TRUE(Registry::Global().Arm("serve.sample", "once").ok());
  ServeClient client(server->port());
  ASSERT_TRUE(client.connected());
  const std::string faulted = client.Roundtrip("SAMPLE m t 0 16 1");
  EXPECT_EQ(faulted.rfind("ERR 500", 0), 0u) << faulted;
  EXPECT_NE(faulted.find("serve.sample"), std::string::npos) << faulted;
  // Same connection, next request: served normally, fully formed.
  const std::string healthy = client.Roundtrip("SAMPLE m t 0 16 1");
  EXPECT_EQ(healthy.rfind("OK SAMPLE 16 2 csv", 0), 0u) << healthy;
  EXPECT_NE(healthy.find("END\n"), std::string::npos);
  EXPECT_EQ(server->GetStats().errors, 1u);
  EXPECT_EQ(server->GetStats().samples_ok, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Whole-pipeline determinism under a multi-site fault schedule.

TEST_F(FaultInjectionTest, FaultScheduleIsThreadCountInvariant) {
  Rng data_rng(81);
  data::Table t = MakeSynthetic(600, 3, 0.4, &data_rng);
  ASSERT_TRUE(Registry::Global().Arm("mle.partition_fit", "1in4").ok());
  std::vector<data::Table> outputs;
  for (int threads : {1, 2, 8}) {
    core::DpCopulaOptions options;
    options.epsilon = 2.0;
    options.estimator = core::CorrelationEstimator::kMle;
    options.mle.num_partitions = 8;
    options.mle.max_failed_partitions = 4;
    options.num_threads = threads;
    Rng rng(82);
    auto res = core::Synthesize(t, options, &rng);
    ASSERT_TRUE(res.ok()) << "threads=" << threads << ": "
                          << res.status().ToString();
    EXPECT_EQ(res->partitions_failed, 2) << "threads=" << threads;
    EXPECT_NEAR(res->budget.spent(), options.epsilon, 1e-9);
    outputs.push_back(std::move(res->synthetic));
  }
  ExpectTablesIdentical(outputs[0], outputs[1]);
  ExpectTablesIdentical(outputs[0], outputs[2]);
}

// ---------------------------------------------------------------------------
// Coverage: the scenarios above must sweep every compiled-in site. Adding a
// DPC_FAILPOINT site (and its KnownSites() entry) without a scenario here
// fails this test.

TEST_F(FaultInjectionTest, SuiteSweepsEveryKnownSite) {
  std::vector<std::string> exercised = {
      "atomicio.rename",      "atomicio.write",
      "core.correlation_estimate", "csv.read.open",
      "csv.read.row",         "hybrid.partition.synthesize",
      "kendall.pair_tau",     "linalg.cholesky",
      "linalg.eigen.converge",
      "linalg.psd_repair",    "mle.partition_fit",
      "model.load.open",      "parallel.dispatch",
      "sampler.row",          "serve.accept",
      "serve.model_reload",   "serve.sample",
      "streaming.ingest.merge",
  };
  std::vector<std::string> known = failpoint::KnownSites();
  std::sort(exercised.begin(), exercised.end());
  std::sort(known.begin(), known.end());
  EXPECT_EQ(exercised, known);
}

#endif  // DPCOPULA_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Existing-but-unexercised failure paths (no injection needed).

TEST(NaturalFailures, CholeskyRejectsNonPositiveDefinite) {
  linalg::Matrix a(2, 2);
  a(0, 0) = a(1, 1) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;  // |rho| > 1: not PD.
  auto chol = linalg::CholeskyDecompose(a);
  ASSERT_FALSE(chol.ok());
  EXPECT_EQ(chol.status().code(), StatusCode::kNumericalError);
  EXPECT_FALSE(linalg::IsPositiveDefinite(a));
}

TEST(NaturalFailures, CholeskyErrorIsDataIndependent) {
  // Two non-PD matrices with very different cell values must produce the
  // same error text: positions may leak, values must not.
  linalg::Matrix a(2, 2);
  a(0, 0) = a(1, 1) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;
  linalg::Matrix b(2, 2);
  b(0, 0) = b(1, 1) = 1.0;
  b(0, 1) = b(1, 0) = 7031.5;
  const auto ra = linalg::CholeskyDecompose(a);
  const auto rb = linalg::CholeskyDecompose(b);
  ASSERT_FALSE(ra.ok());
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(ra.status().message(), rb.status().message());
}

TEST(NaturalFailures, EigenSymReportsSweepExhaustion) {
  linalg::Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = (i == j) ? 2.0 : 0.5;
  }
  linalg::EigenSymOptions no_shifts;
  no_shifts.max_ql_iterations = 0;
  auto ed = linalg::EigenSym(a, no_shifts);
  ASSERT_FALSE(ed.ok());
  EXPECT_EQ(ed.status().code(), StatusCode::kNumericalError);
  // And the message is structural only (shift budget, no matrix entries).
  linalg::Matrix b = a;
  b(0, 1) = b(1, 0) = 0.123;
  auto eb = linalg::EigenSym(b, no_shifts);
  ASSERT_FALSE(eb.ok());
  EXPECT_EQ(ed.status().message(), eb.status().message());
}

TEST(NaturalFailures, TolerantCsvCountsEveryDefectKind) {
  const std::string path = "/tmp/dpc_fault_csv_defects.csv";
  {
    std::ofstream out(path);
    out << "a,b\n"
        << "0,1\n"     // OK.
        << "2\n"       // Too few cells (line 3).
        << "3,4,5\n"   // Too many cells.
        << "x,1\n"     // Non-numeric.
        << "inf,1\n"   // Non-finite.
        << "4,2\n";    // OK.
  }
  data::ReadCsvOptions options;
  options.max_bad_rows = 4;
  auto read = data::ReadCsvTolerant(path, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->stats.rows_kept, 2u);
  EXPECT_EQ(read->stats.bad_rows, 4u);
  EXPECT_EQ(read->stats.bad_too_few_cells, 1u);
  EXPECT_EQ(read->stats.bad_too_many_cells, 1u);
  EXPECT_EQ(read->stats.bad_non_numeric, 1u);
  EXPECT_EQ(read->stats.bad_non_finite, 1u);
  EXPECT_EQ(read->stats.first_bad_line, 3u);

  // One fewer allowance and the read fails closed (with the line number of
  // the defect that crossed the limit, never its contents).
  options.max_bad_rows = 3;
  auto refused = data::ReadCsvTolerant(path, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("max_bad_rows"),
            std::string::npos);

  // Strict reader behavior is unchanged: first malformed row fails.
  EXPECT_FALSE(data::ReadCsv(path).ok());
  std::remove(path.c_str());
}

using ResultDeathTest = FaultInjectionTest;

TEST(ResultDeathTest, ValueAccessOnErrorAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Result<int> r(Status::Internal("boom"));
        (void)r.ValueOrDie();
      },
      "ValueOrDie on error");
}

TEST(ResultDeathTest, ConstructionFromOkStatusAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH({ Result<int> r{Status::OK()}; }, "OK status");
}

}  // namespace
}  // namespace dpcopula
