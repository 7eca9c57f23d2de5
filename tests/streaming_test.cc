#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/streaming.h"
#include "data/generator.h"
#include "stats/kendall.h"

namespace dpcopula::core {
namespace {

data::Table MakeBatch(std::size_t n, double rho, Rng* rng) {
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 100),
      data::MarginSpec::Gaussian("b", 100)};
  auto corr = data::Equicorrelation(2, rho);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

StreamingSynthesizer::Options HighBudgetOptions() {
  StreamingSynthesizer::Options opts;
  opts.epsilon_per_batch = 10.0;
  return opts;
}

TEST(StreamingTest, ValidatesConstruction) {
  StreamingSynthesizer::Options opts;
  opts.epsilon_per_batch = 0.0;
  StreamingSynthesizer s(data::Schema({{"a", 10}}), opts);
  EXPECT_FALSE(s.Validate().ok());
  opts.epsilon_per_batch = 1.0;
  opts.decay = 1.5;
  StreamingSynthesizer s2(data::Schema({{"a", 10}}), opts);
  EXPECT_FALSE(s2.Validate().ok());
  StreamingSynthesizer s3(data::Schema(), HighBudgetOptions());
  EXPECT_FALSE(s3.Validate().ok());
}

TEST(StreamingTest, RejectsBeforeIngest) {
  Rng rng(701);
  StreamingSynthesizer s(MakeBatch(10, 0.0, &rng).schema(),
                         HighBudgetOptions());
  EXPECT_FALSE(s.CurrentModel().ok());
  EXPECT_FALSE(s.Synthesize(10, &rng).ok());
}

TEST(StreamingTest, RejectsSchemaMismatchAndEmptyBatches) {
  Rng rng(703);
  data::Table batch = MakeBatch(100, 0.3, &rng);
  StreamingSynthesizer s(batch.schema(), HighBudgetOptions());
  data::Table other{data::Schema({{"x", 5}})};
  EXPECT_FALSE(s.Ingest(other, &rng).ok());
  data::Table empty{batch.schema()};
  EXPECT_FALSE(s.Ingest(empty, &rng).ok());
}

TEST(StreamingTest, AccumulatesBatchesAndWeight) {
  Rng rng(705);
  data::Table batch = MakeBatch(1000, 0.5, &rng);
  StreamingSynthesizer s(batch.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(batch, &rng).ok());
  EXPECT_EQ(s.num_batches(), 1u);
  const double w1 = s.accumulated_weight();
  EXPECT_NEAR(w1, 1000.0, 100.0);
  ASSERT_TRUE(s.Ingest(MakeBatch(1000, 0.5, &rng), &rng).ok());
  EXPECT_EQ(s.num_batches(), 2u);
  EXPECT_NEAR(s.accumulated_weight(), 2.0 * w1, 250.0);
}

TEST(StreamingTest, ModelReflectsMergedDependence) {
  Rng rng(707);
  data::Table first = MakeBatch(5000, 0.6, &rng);
  StreamingSynthesizer s(first.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(first, &rng).ok());
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(s.Ingest(MakeBatch(5000, 0.6, &rng), &rng).ok());
  }
  auto model = s.CurrentModel();
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->correlation(0, 1), 0.6, 0.1);
  auto sample = s.Synthesize(20000, &rng);
  ASSERT_TRUE(sample.ok());
  auto tau = stats::KendallTau(sample->column(0), sample->column(1));
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(0.6), 0.08);
}

TEST(StreamingTest, DecayTracksDistributionDrift) {
  // Distribution flips from rho = +0.7 to rho = -0.7; with aggressive decay
  // the model must follow the new regime.
  Rng rng(709);
  data::Table seed = MakeBatch(4000, 0.7, &rng);
  StreamingSynthesizer::Options opts = HighBudgetOptions();
  opts.decay = 0.2;
  StreamingSynthesizer s(seed.schema(), opts);
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(s.Ingest(MakeBatch(4000, -0.7, &rng), &rng).ok());
  }
  auto model = s.CurrentModel();
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->correlation(0, 1), -0.4);
}

TEST(StreamingTest, NoDecayAveragesRegimes) {
  Rng rng(711);
  data::Table seed = MakeBatch(4000, 0.7, &rng);
  StreamingSynthesizer s(seed.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  ASSERT_TRUE(s.Ingest(MakeBatch(4000, -0.7, &rng), &rng).ok());
  auto model = s.CurrentModel();
  ASSERT_TRUE(model.ok());
  // Equal-weight average of +-0.7 lands near zero.
  EXPECT_NEAR(model->correlation(0, 1), 0.0, 0.2);
}

TEST(StreamingTest, SaveRestoreRoundTrip) {
  Rng rng(717);
  data::Table seed = MakeBatch(2000, 0.5, &rng);
  StreamingSynthesizer s(seed.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  ASSERT_TRUE(s.Ingest(MakeBatch(2000, 0.5, &rng), &rng).ok());
  const std::string path = "/tmp/dpcopula_stream_state.txt";
  ASSERT_TRUE(s.SaveState(path).ok());

  auto restored =
      StreamingSynthesizer::RestoreState(path, HighBudgetOptions());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_batches(), 2u);
  EXPECT_NEAR(restored->accumulated_weight(), s.accumulated_weight(), 1.0);
  // Restored synthesizer keeps ingesting and sampling.
  ASSERT_TRUE(restored->Ingest(MakeBatch(2000, 0.5, &rng), &rng).ok());
  EXPECT_EQ(restored->num_batches(), 3u);
  auto sample = restored->Synthesize(1000, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->Validate().ok());
  std::remove(path.c_str());
}

TEST(StreamingTest, SaveRequiresIngestedData) {
  Rng rng(719);
  StreamingSynthesizer s(MakeBatch(10, 0.0, &rng).schema(),
                         HighBudgetOptions());
  EXPECT_FALSE(s.SaveState("/tmp/should_not_exist.txt").ok());
  EXPECT_FALSE(StreamingSynthesizer::RestoreState("/nonexistent/x.txt",
                                                  HighBudgetOptions())
                   .ok());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

// Replaces the rest of the line starting at `prefix` with `value`.
std::string WithLineValue(std::string text, const std::string& prefix,
                          const std::string& value) {
  const std::size_t at = text.find(prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  const std::size_t eol = text.find('\n', at);
  text.replace(at + prefix.size(), eol - at - prefix.size(), value);
  return text;
}

// Rewrites the value on the `streaming_weight` line of a saved state file.
void PatchStreamingWeight(const std::string& path, const std::string& value) {
  WriteFileBytes(path, WithLineValue(ReadFileBytes(path), "streaming_weight ",
                                     value));
}

TEST(StreamingTest, RestoreRejectsNonFiniteWeight) {
  Rng rng(721);
  data::Table seed = MakeBatch(500, 0.3, &rng);
  StreamingSynthesizer s(seed.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  const std::string path = "/tmp/dpcopula_stream_nonfinite.txt";
  ASSERT_TRUE(s.SaveState(path).ok());
  // A NaN weight passes a `weight < 0.0` guard (every comparison with NaN
  // is false) and then poisons every later merge — it must fail at restore.
  for (const char* bad : {"nan", "inf", "-inf", "-1", "bogus"}) {
    PatchStreamingWeight(path, bad);
    auto restored =
        StreamingSynthesizer::RestoreState(path, HighBudgetOptions());
    EXPECT_FALSE(restored.ok()) << "weight=" << bad;
  }
  std::remove(path.c_str());
}

TEST(StreamingTest, RestoreReadsExactlyTheTwoCounters) {
  // A state file is a model body, then `streaming_weight` and
  // `streaming_batches`, and nothing else. A batch count of "-1" must not
  // read as 2^64 - 1: the next Ingest would wrap it to 0 and restart the
  // merge from zeros.
  Rng rng(729);
  data::Table seed = MakeBatch(500, 0.3, &rng);
  StreamingSynthesizer s(seed.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  const std::string path = "/tmp/dpcopula_stream_counters.txt";
  ASSERT_TRUE(s.SaveState(path).ok());
  const std::string pristine = ReadFileBytes(path);
  ASSERT_TRUE(StreamingSynthesizer::RestoreState(path, HighBudgetOptions())
                  .ok());
  // The model loader refuses the counters as trailing bytes.
  EXPECT_FALSE(LoadModel(path).ok());

  const std::string body = pristine.substr(0, pristine.find("streaming_"));
  struct Mutant {
    const char* label;
    std::string bytes;
  };
  const std::vector<Mutant> corpus = {
      {"trailing bytes", pristine + "leftover 1 2 3\n"},
      {"negative batches",
       WithLineValue(pristine, "streaming_batches ", "-1")},
      {"zero batches", WithLineValue(pristine, "streaming_batches ", "0")},
      {"non-integer batches",
       WithLineValue(pristine, "streaming_batches ", "2.5")},
      {"exponent batches",
       WithLineValue(pristine, "streaming_batches ", "1e3")},
      {"counters swapped", body + "streaming_batches 1\n"
                                  "streaming_weight 100\n"},
      {"batches missing", body + "streaming_weight 100\n"},
      {"no counters", body},
  };
  for (const Mutant& mutant : corpus) {
    WriteFileBytes(path, mutant.bytes);
    auto restored =
        StreamingSynthesizer::RestoreState(path, HighBudgetOptions());
    ASSERT_FALSE(restored.ok()) << mutant.label;
    EXPECT_EQ(restored.status().code(), StatusCode::kIOError) << mutant.label;
  }
  std::remove(path.c_str());
}

TEST(StreamingTest, IngestDrawsOnlyTheFit) {
  // Ingest fits the batch and samples nothing: it leaves the caller's RNG
  // exactly where Fit on the same batch and options leaves it.
  Rng data_rng(731);
  const data::Table batch = MakeBatch(1000, 0.5, &data_rng);
  const StreamingSynthesizer::Options opts = HighBudgetOptions();
  StreamingSynthesizer s(batch.schema(), opts);
  Rng ingest_rng(733), fit_rng(733);
  ASSERT_TRUE(s.Ingest(batch, &ingest_rng).ok());
  DpCopulaOptions fit_options = opts.fit;
  fit_options.epsilon = opts.epsilon_per_batch;
  const auto fitted = Fit(batch, fit_options, &fit_rng);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(ingest_rng.NextUint64(), fit_rng.NextUint64());
  // One batch at decay 1: the merged margins are the batch's.
  const auto model = s.CurrentModel();
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->marginal_counts, fitted->model.marginal_counts);
}

TEST(StreamingTest, HugeRestoredWeightClampsInsteadOfOverflowing) {
  Rng rng(723);
  data::Table seed = MakeBatch(500, 0.3, &rng);
  StreamingSynthesizer s(seed.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  const std::string path = "/tmp/dpcopula_stream_huge.txt";
  ASSERT_TRUE(s.SaveState(path).ok());
  // 1e300 is a legal (finite) weight but llround(1e300) is UB; fitted_rows
  // must clamp to the long long range instead.
  PatchStreamingWeight(path, "1e300");
  auto restored =
      StreamingSynthesizer::RestoreState(path, HighBudgetOptions());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->accumulated_weight(), 1e300);
  auto model = restored->CurrentModel();
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->fitted_rows,
            static_cast<std::size_t>(
                std::numeric_limits<long long>::max()));
  // Explicit row counts still sample fine from the clamped model.
  auto sample = restored->Synthesize(50, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(), 50u);
  std::remove(path.c_str());
}

TEST(StreamingTest, ManySmallBatchesStayStable) {
  // Thirty tiny batches: numerical accumulation (decay + weighted merges)
  // must keep the model valid throughout.
  Rng rng(715);
  data::Table seed = MakeBatch(100, 0.4, &rng);
  StreamingSynthesizer::Options opts = HighBudgetOptions();
  opts.decay = 0.9;
  StreamingSynthesizer s(seed.schema(), opts);
  ASSERT_TRUE(s.Ingest(seed, &rng).ok());
  for (int b = 0; b < 29; ++b) {
    ASSERT_TRUE(s.Ingest(MakeBatch(100, 0.4, &rng), &rng).ok());
  }
  EXPECT_EQ(s.num_batches(), 30u);
  auto model = s.CurrentModel();
  ASSERT_TRUE(model.ok());
  auto sample = s.Synthesize(500, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->Validate().ok());
}

TEST(StreamingTest, DefaultSampleUsesAccumulatedCount) {
  Rng rng(713);
  data::Table batch = MakeBatch(800, 0.2, &rng);
  StreamingSynthesizer s(batch.schema(), HighBudgetOptions());
  ASSERT_TRUE(s.Ingest(batch, &rng).ok());
  ASSERT_TRUE(s.Ingest(MakeBatch(1200, 0.2, &rng), &rng).ok());
  auto sample = s.Synthesize(0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_NEAR(static_cast<double>(sample->num_rows()), 2000.0, 250.0);
}

}  // namespace
}  // namespace dpcopula::core
