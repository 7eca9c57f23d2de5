#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/census.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/table.h"
#include "reference/csv_reference.h"
#include "serve/protocol.h"
#include "stats/kendall.h"

namespace dpcopula::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dpcopula_" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

Schema TwoColSchema() { return Schema({{"a", 10}, {"b", 5}}); }

TEST(SchemaTest, Accessors) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.attribute(0).name, "a");
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_DOUBLE_EQ(s.DomainSpace(), 50.0);
}

TEST(TableTest, AppendAndAccess) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  ASSERT_TRUE(t.AppendRow({3, 4}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
  EXPECT_FALSE(t.AppendRow({1}).ok());  // Arity mismatch.
}

TEST(TableTest, ValidateDetectsOutOfDomain) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  EXPECT_TRUE(t.Validate().ok());
  ASSERT_TRUE(t.AppendRow({11, 2}).ok());  // 11 outside [0, 10).
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ValidateDetectsNonIntegral) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1.5, 2}).ok());
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ValidateMessageCarriesNoCellValue) {
  std::vector<std::string> messages;
  for (double v : {7.0, std::nan(""), 1e9}) {
    Table t(TwoColSchema());
    ASSERT_TRUE(t.AppendRow({1, 2}).ok());
    ASSERT_TRUE(t.AppendRow({3, v}).ok());  // Outside b's domain [0, 5).
    const Status status = t.Validate();
    ASSERT_FALSE(status.ok());
    messages.push_back(status.message());
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[0], messages[2]);
}

TEST(TableTest, ProjectKeepsSelectedColumns) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  auto p = t.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 1u);
  EXPECT_EQ(p->schema().attribute(0).name, "b");
  EXPECT_DOUBLE_EQ(p->at(0, 0), 2.0);
  EXPECT_FALSE(t.Project({5}).ok());
}

TEST(TableTest, ConcatRequiresMatchingSchema) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.AppendRow({1, 1}).ok());
  ASSERT_TRUE(b.AppendRow({2, 2}).ok());
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 2u);
  Table c(Schema({{"x", 3}}));
  EXPECT_FALSE(a.Concat(c).ok());
}

TEST(TableTest, RangeCount) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 1}).ok());
  ASSERT_TRUE(t.AppendRow({5, 2}).ok());
  ASSERT_TRUE(t.AppendRow({9, 4}).ok());
  EXPECT_EQ(t.RangeCount({0, 0}, {9, 4}), 3);
  EXPECT_EQ(t.RangeCount({2, 0}, {9, 4}), 2);
  EXPECT_EQ(t.RangeCount({0, 3}, {9, 4}), 1);
  EXPECT_EQ(t.RangeCount({6, 0}, {5, 4}), 0);
}

TEST(TableTest, ZerosHasRequestedShape) {
  Table t = Table::Zeros(TwoColSchema(), 7);
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_DOUBLE_EQ(t.at(6, 1), 0.0);
}

TEST(CsvTest, RoundTrip) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  ASSERT_TRUE(t.AppendRow({9, 4}).ok());
  const std::string path = "/tmp/dpcopula_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsvWithSchema(path, t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(back->at(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(CsvTest, InferredSchemaUsesMaxPlusOne) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({7, 3}).ok());
  const std::string path = "/tmp/dpcopula_csv_infer.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->schema().attribute(0).domain_size, 8);
  EXPECT_EQ(back->schema().attribute(1).domain_size, 4);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kIOError);
}

// Every case here was misread, or read as a different table, by the
// line-at-a-time reader the block codec replaced.
TEST(CsvTest, StrictReadFollowsTheCellGrammar) {
  struct Case {
    const char* label;
    std::string text;
    const char* error;  // Expected message prefix; nullptr = the read works.
    std::vector<std::string> names;
    std::vector<std::vector<double>> rows;
  };
  const std::vector<Case> cases = {
      {"trailing letters", "a\n5abc\n", "non-numeric cell at line 2", {}, {}},
      {"letters after a blank", "a\n5 abc\n", "non-numeric cell at line 2",
       {}, {}},
      {"hex integer", "a\n0x10\n", "non-numeric cell at line 2", {}, {}},
      {"hex float", "a\n0x1p3\n", "non-numeric cell at line 2", {}, {}},
      {"dangling exponent", "a\n1e\n", "non-numeric cell at line 2", {}, {}},
      {"second decimal point", "a\n1.5.2\n", "non-numeric cell at line 2",
       {}, {}},
      {"out of range", "a\n1e400\n", "non-numeric cell at line 2", {}, {}},
      {"trailing comma", "a,b\n1,2,\n", "too many cells at line 2", {}, {}},
      {"nan", "a\nnan\n", "non-finite cell at line 2", {}, {}},
      {"infinity", "a,b\n1,-inf\n", "non-finite cell at line 2", {}, {}},
      {"domain past int64", "a\n1e19\n",
       "column 'a' is too large to infer a domain", {}, {}},
      {"crlf", "a,b\r\n1,2\r\n3,4\r", nullptr, {"a", "b"}, {{1, 2}, {3, 4}}},
      {"crlf blank line", "a,b\r\n1,2\r\n\r\n3,4\r\n", nullptr, {"a", "b"},
       {{1, 2}, {3, 4}}},
  };
  const std::string path = TempPath("csv_grammar.csv");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    WriteText(path, c.text);
    auto read = ReadCsv(path);
    if (c.error != nullptr) {
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().message().rfind(c.error, 0), 0u)
          << read.status().ToString();
      continue;
    }
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->num_columns(), c.names.size());
    for (std::size_t j = 0; j < c.names.size(); ++j) {
      EXPECT_EQ(read->schema().attribute(j).name, c.names[j]);
    }
    ASSERT_EQ(read->num_rows(), c.rows.size());
    for (std::size_t r = 0; r < c.rows.size(); ++r) {
      for (std::size_t j = 0; j < c.names.size(); ++j) {
        EXPECT_EQ(read->at(r, j), c.rows[r][j]);
      }
    }
  }
  std::remove(path.c_str());
}

/// One random cell: mostly plain integers (the reader's digit fast path),
/// sometimes a form only the general parser takes, sometimes a defect.
std::string RandomCell(Rng* rng) {
  const std::string digits = std::to_string(rng->NextUint64Below(1000));
  switch (rng->NextUint64Below(48)) {
    case 0: return " " + digits + "\t";
    case 1: return "+" + digits;
    case 2: return "-" + digits;
    case 3: return digits + ".25";
    case 4: return digits + "e2";
    case 5: return "00" + digits;
    case 6: return std::to_string(rng->NextUint64() >> 12);  // Up to 16 digits.
    case 7: return std::to_string(rng->NextUint64() >> 3);   // Rounds.
    case 8: return "";
    case 9: return digits + "x";
    case 10: return "0x" + digits;
    case 11: return "+-" + digits;
    case 12: return digits + " " + digits;
    case 13: return "nan";
    case 14: return "-Infinity";
    case 15: return "1e400";
    default: return digits;
  }
}

/// A CSV of at least `min_bytes` with random defects, blank lines, mixed
/// LF/CRLF endings and no final newline. One CRLF straddles the reader's
/// first block boundary and one row is longer than a whole block.
std::string RandomCsvText(std::uint64_t seed, std::size_t num_columns,
                          std::size_t min_bytes) {
  Rng rng(seed);
  std::string text;
  const auto end_line = [&] {
    text += rng.NextUint64Below(4) == 0 ? "\r\n" : "\n";
  };
  const auto row = [&](std::size_t cells) {
    for (std::size_t j = 0; j < cells; ++j) {
      if (j > 0) text += ',';
      text += RandomCell(&rng);
    }
  };
  for (std::size_t j = 0; j < num_columns; ++j) {
    text += (j > 0 ? ",c" : "c") + std::to_string(j);
  }
  end_line();
  bool straddled = false;
  bool long_line = false;
  while (text.size() < min_bytes) {
    if (!straddled && text.size() + 512 >= kCsvBlockBytes) {
      // A valid row padded so that its '\r' is the block's last byte.
      std::string cells = "1";
      for (std::size_t j = 1; j < num_columns; ++j) cells += ",2";
      text += std::string(kCsvBlockBytes - 1 - text.size() - cells.size(), ' ');
      text += cells + "\r\n";
      straddled = true;
      continue;
    }
    if (!long_line && text.size() >= kCsvBlockBytes + kCsvBlockBytes / 4) {
      text += std::string(kCsvBlockBytes + 4321, ' ') + "7";
      for (std::size_t j = 1; j < num_columns; ++j) text += ",8";
      end_line();
      long_line = true;
      continue;
    }
    const std::uint64_t kind = rng.NextUint64Below(100);
    if (kind < 3) {
      end_line();  // Blank line.
      continue;
    }
    row(kind < 6 ? num_columns + 1 : kind < 9 ? num_columns - 1
                                              : num_columns);
    if (kind == 9) text += ',';
    end_line();
  }
  // A valid last line without a terminator ('\r' alone for even seeds).
  text += "5";
  for (std::size_t j = 1; j < num_columns; ++j) text += ",6";
  if (seed % 2 == 0) text += '\r';
  return text;
}

void ExpectSameRead(const Result<CsvReadResult>& got,
                    const Result<CsvReadResult>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << got.status().ToString() << " vs " << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const CsvReadStats& a = got->stats;
  const CsvReadStats& b = want->stats;
  EXPECT_EQ(a.rows_kept, b.rows_kept);
  EXPECT_EQ(a.bad_rows, b.bad_rows);
  EXPECT_EQ(a.bad_too_many_cells, b.bad_too_many_cells);
  EXPECT_EQ(a.bad_too_few_cells, b.bad_too_few_cells);
  EXPECT_EQ(a.bad_non_numeric, b.bad_non_numeric);
  EXPECT_EQ(a.bad_non_finite, b.bad_non_finite);
  EXPECT_EQ(a.bad_injected, b.bad_injected);
  EXPECT_EQ(a.first_bad_line, b.first_bad_line);
  const Table& x = got->table;
  const Table& y = want->table;
  ASSERT_TRUE(x.schema() == y.schema());
  ASSERT_EQ(x.num_rows(), y.num_rows());
  for (std::size_t j = 0; j < x.num_columns(); ++j) {
    EXPECT_EQ(std::memcmp(x.column(j).data(), y.column(j).data(),
                          x.num_rows() * sizeof(double)),
              0)
        << "column " << j;
  }
}

TEST(CsvCodecTest, BlockReaderMatchesLineAtATimeReference) {
  const std::string path = TempPath("csv_differential.csv");
  const Schema declared({{"c0", 1000}, {"c1", 1000}, {"c2", 1000}});
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const std::string text = RandomCsvText(seed, 3, 2 * kCsvBlockBytes + 99);
    ASSERT_EQ(text.substr(kCsvBlockBytes - 1, 2), "\r\n");
    WriteText(path, text);
    for (std::size_t max_bad :
         {std::numeric_limits<std::size_t>::max(), std::size_t{0},
          std::size_t{2000}}) {
      ReadCsvOptions options;
      options.max_bad_rows = max_bad;
      const auto want = reference::ReadCsvReference(path, nullptr, options);
      ExpectSameRead(ReadCsvTolerant(path, options), want);
      if (max_bad == std::numeric_limits<std::size_t>::max()) {
        // The file really holds every defect kind.
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_GT(want->stats.bad_too_many_cells, 0u);
        EXPECT_GT(want->stats.bad_too_few_cells, 0u);
        EXPECT_GT(want->stats.bad_non_numeric, 0u);
        EXPECT_GT(want->stats.bad_non_finite, 0u);
        EXPECT_GT(want->stats.rows_kept, want->stats.bad_rows);
      }
      ExpectSameRead(
          ReadCsvTolerantWithSchema(path, declared, options),
          reference::ReadCsvReference(path, &declared, options));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvCodecTest, WriteThenReadIsBitExact) {
  Rng rng(8);
  const Schema schema({{"small", 10}, {"wide", 1}, {"signed", 1}});
  Table t = Table::Zeros(schema, 100000);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    t.set(r, 0, static_cast<double>(rng.NextUint64Below(10)));
    t.set(r, 1, static_cast<double>(rng.NextInt64InRange(
                    -(std::int64_t{1} << 53), std::int64_t{1} << 53)));
    t.set(r, 2, static_cast<double>(rng.NextInt64InRange(-999, 999)));
  }
  const std::string path = TempPath("csv_roundtrip.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsvWithSchema(path, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (std::size_t j = 0; j < t.num_columns(); ++j) {
    EXPECT_EQ(std::memcmp(back->column(j).data(), t.column(j).data(),
                          t.num_rows() * sizeof(double)),
              0)
        << "column " << j;
  }
  std::remove(path.c_str());
}

TEST(CsvCodecTest, SampleRendererMatchesToStringLoop) {
  Rng rng(5);
  const Schema schema({{"age", 100}, {"income", 1 << 20}, {"flag", 2}});
  for (std::size_t rows : {0, 1, 255, 256, 257, 20000}) {
    SCOPED_TRACE(rows);
    Table t = Table::Zeros(schema, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      t.set(r, 0, static_cast<double>(rng.NextUint64Below(100)));
      // Large magnitudes of both signs and halves that llround rounds.
      t.set(r, 1, static_cast<double>(rng.NextInt64InRange(
                      -(std::int64_t{1} << 60), std::int64_t{1} << 60)));
      t.set(r, 2, static_cast<double>(rng.NextInt64InRange(-9, 9)) + 0.5);
    }
    for (bool binary : {false, true}) {
      EXPECT_EQ(serve::RenderSampleResponse(t, binary),
                reference::RenderSampleReference(t, binary))
          << (binary ? "binary" : "csv");
    }
  }
}

TEST(MarginSpecTest, ProbabilitiesNormalized) {
  for (const auto& spec :
       {MarginSpec::Uniform("u", 100), MarginSpec::Gaussian("g", 100),
        MarginSpec::Zipf("z", 100, 1.2), MarginSpec::Bernoulli("b", 0.3)}) {
    auto p = MarginProbabilities(spec);
    ASSERT_TRUE(p.ok()) << spec.name;
    double total = 0.0;
    for (double v : *p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << spec.name;
  }
}

TEST(MarginSpecTest, BernoulliShape) {
  auto p = MarginProbabilities(MarginSpec::Bernoulli("b", 0.3));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[0], 0.7, 1e-12);
  EXPECT_NEAR((*p)[1], 0.3, 1e-12);
}

TEST(MarginSpecTest, InvalidSpecsRejected) {
  MarginSpec bad = MarginSpec::Bernoulli("b", 1.5);
  EXPECT_FALSE(MarginProbabilities(bad).ok());
  MarginSpec neg = MarginSpec::Piecewise("p", {1.0, -2.0});
  EXPECT_FALSE(MarginProbabilities(neg).ok());
  MarginSpec empty;
  empty.domain_size = 0;
  EXPECT_FALSE(MarginProbabilities(empty).ok());
}

TEST(GeneratorTest, MarginsMatchSpecifiedDistribution) {
  Rng rng(51);
  std::vector<MarginSpec> specs = {MarginSpec::Zipf("z", 50, 1.0),
                                   MarginSpec::Uniform("u", 50)};
  auto corr = Equicorrelation(2, 0.0);
  ASSERT_TRUE(corr.ok());
  auto t = GenerateGaussianDependent(specs, *corr, 40000, &rng);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Validate().ok());
  auto probs = MarginProbabilities(specs[0]);
  ASSERT_TRUE(probs.ok());
  std::vector<double> freq(50, 0.0);
  for (double v : t->column(0)) freq[static_cast<std::size_t>(v)] += 1.0;
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_NEAR(freq[v] / 40000.0, (*probs)[v], 0.01) << "value " << v;
  }
}

TEST(GeneratorTest, GaussianDependenceInducesTargetKendall) {
  Rng rng(53);
  std::vector<MarginSpec> specs = {MarginSpec::Gaussian("a", 500),
                                   MarginSpec::Gaussian("b", 500)};
  const double rho = 0.7;
  auto corr = Equicorrelation(2, rho);
  ASSERT_TRUE(corr.ok());
  auto t = GenerateGaussianDependent(specs, *corr, 20000, &rng);
  ASSERT_TRUE(t.ok());
  auto tau = stats::KendallTau(t->column(0), t->column(1));
  ASSERT_TRUE(tau.ok());
  // For Gaussian dependence, tau = (2/pi) asin(rho).
  EXPECT_NEAR(*tau, 2.0 / M_PI * std::asin(rho), 0.03);
}

TEST(GeneratorTest, Ar1CorrelationShape) {
  auto p = Ar1Correlation(4, 0.5);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(p(3, 0), 0.125);
}

TEST(GeneratorTest, EquicorrelationValidation) {
  EXPECT_TRUE(Equicorrelation(4, 0.5).ok());
  EXPECT_FALSE(Equicorrelation(4, -0.5).ok());  // Below -1/(m-1).
  EXPECT_FALSE(Equicorrelation(4, 1.0).ok());
}

TEST(GeneratorTest, ShapeMismatchRejected) {
  Rng rng(57);
  std::vector<MarginSpec> specs = {MarginSpec::Uniform("u", 10)};
  auto corr = Equicorrelation(2, 0.1);
  ASSERT_TRUE(corr.ok());
  EXPECT_FALSE(GenerateGaussianDependent(specs, *corr, 10, &rng).ok());
}

TEST(TableTest, ProjectPreservesRowCount) {
  Table t(TwoColSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i), 0}).ok());
  }
  auto p = t.Project({0, 1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 5u);
  auto swapped = t.Project({1, 0});
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->schema().attribute(0).name, "b");
  EXPECT_DOUBLE_EQ(swapped->at(3, 1), 3.0);
}

TEST(TableTest, RangeCountEmptyTable) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.RangeCount({0, 0}, {9, 4}), 0);
}

TEST(TableTest, ConcatEmptyIsNoop) {
  Table a(TwoColSchema()), b(TwoColSchema());
  ASSERT_TRUE(a.AppendRow({1, 1}).ok());
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 1u);
}

TEST(GeneratorTest, SingleRowAndSingleColumn) {
  Rng rng(69);
  std::vector<MarginSpec> specs = {MarginSpec::Uniform("u", 5)};
  auto one = GenerateGaussianDependent(specs, linalg::Matrix::Identity(1), 1,
                                       &rng);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_rows(), 1u);
  EXPECT_TRUE(one->Validate().ok());
  auto zero = GenerateGaussianDependent(specs, linalg::Matrix::Identity(1),
                                        0, &rng);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0u);
}

TEST(GeneratorTest, ExponentialAndGammaFamilies) {
  MarginSpec expo;
  expo.name = "e";
  expo.family = MarginFamily::kExponential;
  expo.domain_size = 100;
  auto pe = MarginProbabilities(expo);
  ASSERT_TRUE(pe.ok());
  // Strictly decreasing.
  for (std::size_t i = 1; i < pe->size(); ++i) {
    EXPECT_LT((*pe)[i], (*pe)[i - 1]);
  }
  MarginSpec gamma;
  gamma.name = "g";
  gamma.family = MarginFamily::kGamma;
  gamma.domain_size = 100;
  gamma.shape = 3.0;
  auto pg = MarginProbabilities(gamma);
  ASSERT_TRUE(pg.ok());
  // Unimodal with interior mode for shape > 1.
  std::size_t mode = 0;
  for (std::size_t i = 0; i < pg->size(); ++i) {
    if ((*pg)[i] > (*pg)[mode]) mode = i;
  }
  EXPECT_GT(mode, 0u);
  EXPECT_LT(mode, 99u);
}

TEST(CensusTest, SchemasMatchPaperTable2) {
  Schema us = UsCensusSchema();
  ASSERT_EQ(us.num_attributes(), 4u);
  EXPECT_EQ(us.attribute(0).domain_size, 96);    // Age.
  EXPECT_EQ(us.attribute(1).domain_size, 1020);  // Income.
  EXPECT_EQ(us.attribute(2).domain_size, 511);   // Occupation.
  EXPECT_EQ(us.attribute(3).domain_size, 2);     // Gender.

  Schema br = BrazilCensusSchema();
  ASSERT_EQ(br.num_attributes(), 8u);
  EXPECT_EQ(br.attribute(0).domain_size, 95);
  EXPECT_EQ(br.attribute(1).domain_size, 2);
  EXPECT_EQ(br.attribute(2).domain_size, 2);
  EXPECT_EQ(br.attribute(3).domain_size, 2);
  EXPECT_EQ(br.attribute(4).domain_size, 31);
  EXPECT_EQ(br.attribute(5).domain_size, 140);
  EXPECT_EQ(br.attribute(6).domain_size, 95);
  EXPECT_EQ(br.attribute(7).domain_size, 586);
}

TEST(CensusTest, UsCensusGeneratesValidSkewedData) {
  Rng rng(61);
  auto t = GenerateUsCensus(20000, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 20000u);
  EXPECT_TRUE(t->Validate().ok());
  EXPECT_TRUE(t->schema() == UsCensusSchema());
  // Income should correlate positively with age (by construction).
  auto tau = stats::KendallTau(t->column(0), t->column(1));
  ASSERT_TRUE(tau.ok());
  EXPECT_GT(*tau, 0.1);
  // Gender split near 51%.
  double ones = 0.0;
  for (double v : t->column(3)) ones += v;
  EXPECT_NEAR(ones / 20000.0, 0.51, 0.02);
}

TEST(CensusTest, BrazilCensusGeneratesValidData) {
  Rng rng(67);
  auto t = GenerateBrazilCensus(10000, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Validate().ok());
  EXPECT_TRUE(t->schema() == BrazilCensusSchema());
  // Disability is rare.
  double dis = 0.0;
  for (double v : t->column(2)) dis += v;
  EXPECT_LT(dis / 10000.0, 0.15);
  // Education-income dependence is positive.
  auto tau = stats::KendallTau(t->column(5), t->column(7));
  ASSERT_TRUE(tau.ok());
  EXPECT_GT(*tau, 0.1);
}

}  // namespace
}  // namespace dpcopula::data
