#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/model_io.h"
#include "data/generator.h"
#include "stats/kendall.h"

namespace dpcopula::core {
namespace {

DpCopulaModel FittedModel(Rng* rng, CopulaFamily family = CopulaFamily::kGaussian) {
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 100),
      data::MarginSpec::Zipf("b", 80, 1.0)};
  auto table = data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.6), 5000, rng);
  DpCopulaOptions opts;
  opts.epsilon = 5.0;
  opts.family = family;
  if (family == CopulaFamily::kStudentT) opts.t_dof = 4.0;
  auto res = Synthesize(*table, opts, rng);
  return ModelFromSynthesis(table->schema(), *res);
}

TEST(ModelIoTest, ModelFromSynthesisCapturesFields) {
  Rng rng(601);
  DpCopulaModel model = FittedModel(&rng);
  EXPECT_EQ(model.schema.num_attributes(), 2u);
  EXPECT_EQ(model.marginal_counts.size(), 2u);
  EXPECT_EQ(model.marginal_counts[0].size(), 100u);
  EXPECT_EQ(model.correlation.rows(), 2u);
  EXPECT_EQ(model.fitted_rows, 5000u);
}

TEST(ModelIoTest, SampleFromModelProducesValidTable) {
  Rng rng(603);
  DpCopulaModel model = FittedModel(&rng);
  auto sample = SampleFromModel(model, 1234, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_rows(), 1234u);
  EXPECT_TRUE(sample->Validate().ok());
  // Default row count = fitted_rows.
  auto default_sample = SampleFromModel(model, 0, &rng);
  ASSERT_TRUE(default_sample.ok());
  EXPECT_EQ(default_sample->num_rows(), 5000u);
}

TEST(ModelIoTest, SaveLoadRoundTrip) {
  Rng rng(605);
  DpCopulaModel model = FittedModel(&rng);
  const std::string path = "/tmp/dpcopula_model_test.txt";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->schema == model.schema);
  EXPECT_EQ(loaded->family, model.family);
  EXPECT_EQ(loaded->fitted_rows, model.fitted_rows);
  EXPECT_LT(loaded->correlation.MaxAbsDiff(model.correlation), 1e-9);
  ASSERT_EQ(loaded->marginal_counts.size(), model.marginal_counts.size());
  for (std::size_t j = 0; j < model.marginal_counts.size(); ++j) {
    for (std::size_t v = 0; v < model.marginal_counts[j].size(); ++v) {
      EXPECT_NEAR(loaded->marginal_counts[j][v],
                  model.marginal_counts[j][v], 1e-9);
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, StudentTRoundTrip) {
  Rng rng(607);
  DpCopulaModel model = FittedModel(&rng, CopulaFamily::kStudentT);
  ASSERT_EQ(model.family, CopulaFamily::kStudentT);
  const std::string path = "/tmp/dpcopula_model_t_test.txt";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->family, CopulaFamily::kStudentT);
  EXPECT_DOUBLE_EQ(loaded->t_dof, 4.0);
  auto sample = SampleFromModel(*loaded, 500, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->Validate().ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, ResampledDataPreservesDependence) {
  Rng rng(609);
  DpCopulaModel model = FittedModel(&rng);
  auto sample = SampleFromModel(model, 20000, &rng);
  ASSERT_TRUE(sample.ok());
  auto tau = stats::KendallTau(sample->column(0), sample->column(1));
  ASSERT_TRUE(tau.ok());
  // Fitted at rho ~ 0.6 with high budget: tau ~ (2/pi) asin(0.6) ~ 0.41.
  EXPECT_GT(*tau, 0.25);
}

TEST(ModelIoTest, LoadRejectsCorruptFiles) {
  const std::string path = "/tmp/dpcopula_model_corrupt.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("NOT-A-MODEL\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadModel(path).ok());
  EXPECT_FALSE(LoadModel("/nonexistent/model.txt").ok());
  std::remove(path.c_str());
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

// Replaces the first whitespace-delimited token on the line *after* the
// line containing `anchor` (margin/correlation blocks put values there).
std::string WithValueAfter(std::string text, const std::string& anchor,
                           const std::string& value) {
  const std::size_t at = text.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  const std::size_t start = text.find('\n', at) + 1;
  const std::size_t end = text.find_first_of(" \n", start);
  text.replace(start, end - start, value);
  return text;
}

// A pristine model file round-trips bit-identically, and every mutant in a
// corpus of targeted corruptions — non-finite numbers, truncations,
// appended garbage, header damage — is rejected at load time instead of
// surfacing as NaN samples later.
TEST(ModelIoTest, CorruptionCorpusAllRejected) {
  Rng rng(613);
  DpCopulaModel model = FittedModel(&rng);
  const std::string path = "/tmp/dpcopula_model_corpus.txt";
  const std::string reserialized = "/tmp/dpcopula_model_corpus2.txt";
  ASSERT_TRUE(SaveModel(model, path).ok());
  const std::string pristine = ReadFileBytes(path);

  // Bit-identical round trip: load + save again reproduces the same bytes
  // (a valid correlation passes through EnsureCorrelationMatrix unchanged).
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveModel(*loaded, reserialized).ok());
  EXPECT_EQ(pristine, ReadFileBytes(reserialized));

  struct Mutant {
    const char* label;
    std::string bytes;
  };
  const std::vector<Mutant> corpus = {
      {"bad header", WithLineValue(pristine, "DPCOPULA-MODEL ", "v9")},
      {"nan t_dof", WithLineValue(pristine, "t_dof ", "nan")},
      {"inf t_dof", WithLineValue(pristine, "t_dof ", "inf")},
      {"text t_dof", WithLineValue(pristine, "t_dof ", "x")},
      {"nan margin value", WithValueAfter(pristine, "margin 0 ", "nan")},
      {"inf margin value", WithValueAfter(pristine, "margin 1 ", "inf")},
      {"text margin value", WithValueAfter(pristine, "margin 0 ", "z")},
      {"nan correlation", WithValueAfter(pristine, "correlation 2", "nan")},
      {"text correlation", WithValueAfter(pristine, "correlation 2", "q")},
      {"margin size mismatch", WithLineValue(pristine, "margin 0 ", "7")},
      {"bad family", WithLineValue(pristine, "family ", "cauchy")},
      // Must not read as 2^64 - 5 rows, which no table can hold.
      {"negative fitted_rows", WithLineValue(pristine, "fitted_rows ", "-5")},
      {"trailing garbage", pristine + "leftover 1 2 3\n"},
      {"doubled write", pristine + pristine},
      {"truncated", pristine.substr(0, pristine.size() / 2)},
      {"truncated tail", pristine.substr(0, pristine.size() - 4)},
      {"empty", ""},
  };
  for (const Mutant& mutant : corpus) {
    WriteFileBytes(path, mutant.bytes);
    auto result = LoadModel(path);
    ASSERT_FALSE(result.ok()) << mutant.label;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError) << mutant.label;
  }

  // Data independence: the same structural defect with different injected
  // bytes must produce the same error text — positions may leak, values
  // must not.
  WriteFileBytes(path, WithValueAfter(pristine, "margin 0 ", "nan"));
  const Status nan_status = LoadModel(path).status();
  WriteFileBytes(path, WithValueAfter(pristine, "margin 0 ", "inf"));
  const Status inf_status = LoadModel(path).status();
  EXPECT_EQ(nan_status.message(), inf_status.message());

  std::remove(path.c_str());
  std::remove(reserialized.c_str());
}

TEST(ModelIoTest, SampleValidatesModel) {
  Rng rng(611);
  DpCopulaModel empty;
  EXPECT_FALSE(SampleFromModel(empty, 10, &rng).ok());
  DpCopulaModel model = FittedModel(&rng);
  model.marginal_counts.pop_back();
  EXPECT_FALSE(SampleFromModel(model, 10, &rng).ok());
}

TEST(ModelIoTest, RefusesFamiliesTheFormatCannotHold) {
  // An empirical fit's DP grid lives only in memory: saved as "gaussian"
  // it would reload as independent margins over an identity correlation.
  // kAutoAic is a request, never a fitted family.
  Rng rng(613);
  const DpCopulaModel empirical = FittedModel(&rng, CopulaFamily::kEmpirical);
  ASSERT_EQ(empirical.family, CopulaFamily::kEmpirical);
  ASSERT_NE(empirical.grid, nullptr);
  // Held in memory, the model keeps its grid and samples.
  auto sample = SampleFromModel(empirical, 10, &rng);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->num_rows(), 10u);
  EXPECT_TRUE(sample->Validate().ok());
  DpCopulaModel gridless = empirical;
  gridless.grid = nullptr;
  DpCopulaModel auto_aic = empirical;
  auto_aic.family = CopulaFamily::kAutoAic;
  for (const DpCopulaModel* model : {&gridless, &auto_aic}) {
    EXPECT_EQ(SampleFromModel(*model, 10, &rng).status().code(),
              StatusCode::kInvalidArgument);
  }
  const std::string path = "/tmp/dpcopula_model_family_test.txt";
  const DpCopulaModel* const models[] = {&empirical, &auto_aic};
  for (const DpCopulaModel* model : models) {
    std::remove(path.c_str());
    std::ostringstream out;
    EXPECT_EQ(SerializeModel(*model, out).code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.str().empty());
    EXPECT_EQ(SaveModel(*model, path).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  }
}

}  // namespace
}  // namespace dpcopula::core
