// Release-path subcommands: input generation, one CSV -> CSV release (the
// `dpcopula` CLI path with its defaults), the whole-table layer breakdown,
// and the output checks and quality score.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "commands.h"
#include "common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "baselines/range_estimator.h"
#include "copula/kendall_estimator.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "core/model_io.h"
#include "data/csv.h"
#include "hist/histogram.h"
#include "linalg/cholesky.h"
#include "marginals/marginal_method.h"
#include "marginals/postprocess.h"
#include "query/evaluator.h"
#include "stats/empirical_cdf.h"
#include "stats/kendall.h"

namespace perfbench {

namespace {

using dpcopula::data::Table;

// First line of a CSV file, without the line break.
std::string HeaderLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::string SchemaHeader(const dpcopula::data::Schema& schema) {
  std::string header;
  for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j > 0) header += ',';
    header += schema.attribute(j).name;
  }
  return header;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) parts.push_back(item);
  }
  return parts;
}

}  // namespace

int RunGen(const Args& args) {
  const std::string workload = args.Str("workload", "");
  const std::string out = args.Str("out", "");
  const double t0 = NowSeconds();
  Result<Table> table = MakeInputTable(workload, args.Seed("seed"));
  if (!table.ok()) return FailJson("generate", table.status());
  const double t1 = NowSeconds();
  Status written = dpcopula::data::WriteCsv(*table, out);
  if (!written.ok()) return FailJson("write", written);
  const double t2 = NowSeconds();
  JsonLine()
      .Bool("ok", true)
      .Int("rows", static_cast<std::int64_t>(table->num_rows()))
      .Int("cols", static_cast<std::int64_t>(table->num_columns()))
      .Int("bytes", static_cast<std::int64_t>(FileBytes(out)))
      .Num("generate_s", t1 - t0)
      .Num("write_s", t2 - t1)
      .Print();
  return 0;
}

int RunRelease(const Args& args) {
  const std::string input = args.Str("input", "");
  const std::string output = args.Str("output", "");
  const std::string op = args.Str("op", "release");
  Tracer tracer(args.Has("trace-out"));
  JsonLine out;
  double read_s = 0, synth_s = 0, write_s = 0, cpu_s = 0;
  double rss_before = 0, rss_peak = 0;
  std::int64_t partitions = 0;
  std::size_t rows_out = 0;
  {
    ScopedSpan release(&tracer, "release", op);
    double t = NowSeconds();
    Table table;
    {
      ScopedSpan span(&tracer, "data.read_csv", op);
      Result<Table> read = dpcopula::data::ReadCsv(input);
      if (!read.ok()) return FailJson("read", read.status());
      table = std::move(read).ValueOrDie();
    }
    read_s = NowSeconds() - t;
    dpcopula::core::HybridOptions hybrid;
    hybrid.epsilon = 1.0;
    hybrid.inner = CliOptions();
    hybrid.num_threads = kCliThreads;
    dpcopula::Rng rng(args.Seed("seed"));
    rss_before = CurrentRssMb();
    const double cpu0 = ProcessCpuSeconds();
    t = NowSeconds();
    Table synthetic;
    {
      ScopedSpan span(&tracer, "core.synthesize_hybrid", op);
      auto result = dpcopula::core::SynthesizeHybrid(table, hybrid, &rng);
      if (!result.ok()) return FailJson("synthesize", result.status());
      partitions = result->num_partitions;
      synthetic = std::move(result->synthetic);
    }
    synth_s = NowSeconds() - t;
    cpu_s = ProcessCpuSeconds() - cpu0;
    rss_peak = PeakRssMb();
    rows_out = synthetic.num_rows();
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "data.write_csv", op);
      Status written = dpcopula::data::WriteCsv(synthetic, output);
      if (!written.ok()) return FailJson("write", written);
    }
    write_s = NowSeconds() - t;
  }
  if (Status s = WriteTrace(tracer, args); !s.ok()) return FailJson("trace", s);
  out.Bool("ok", true)
      .Num("read_s", read_s)
      .Num("synth_s", synth_s)
      .Num("write_s", write_s)
      .Num("cpu_s", cpu_s)
      .Int("threads", dpcopula::ResolveNumThreads(kCliThreads))
      .Num("rss_before_mb", rss_before)
      .Num("rss_peak_mb", rss_peak)
      .Int("partitions", partitions)
      .Int("rows", static_cast<std::int64_t>(rows_out))
      .Int("in_bytes", static_cast<std::int64_t>(FileBytes(input)))
      .Int("out_bytes", static_cast<std::int64_t>(FileBytes(output)));
  if (tracer.enabled()) AddCoverage(tracer, &out);
  out.Print();
  return 0;
}

int RunSynthPlain(const Args& args) {
  Result<Table> table = dpcopula::data::ReadCsv(args.Str("input", ""));
  if (!table.ok()) return FailJson("read", table.status());
  dpcopula::Rng rng(args.Seed("seed"));
  const double t = NowSeconds();
  auto result =
      dpcopula::core::Synthesize(*table, CliOptions(), &rng);
  if (!result.ok()) return FailJson("synthesize", result.status());
  JsonLine().Bool("ok", true).Num("synth_s", NowSeconds() - t).Print();
  return 0;
}

int RunLayers(const Args& args) {
  namespace copula = dpcopula::copula;
  namespace stats = dpcopula::stats;
  const std::string op = args.Str("op", "layers");
  Result<Table> read = dpcopula::data::ReadCsv(args.Str("input", ""));
  if (!read.ok()) return FailJson("read", read.status());
  const Table& table = *read;
  const std::size_t m = table.num_columns();
  const double epsilon = 1.0;
  const double k = 8.0;
  const double epsilon1 = epsilon * k / (k + 1.0);
  const double epsilon2 = epsilon - epsilon1;
  const double eps_per_margin = epsilon1 / static_cast<double>(m);
  dpcopula::Rng rng(args.Seed("seed"));
  Tracer tracer(true);

  // The lower layers on the whole table, in the order core::Synthesize
  // calls them: margins, correlation estimate, sampling (plus the sampling
  // plan the sampler builds internally, timed on its own).
  std::vector<stats::EmpiricalCdf> cdfs;
  std::vector<std::vector<double>> counts;
  copula::KendallEstimate estimate;
  double publish_s = 0, estimate_s = 0, plan_s = 0, sample_s = 0;
  double dct_terms = 0;
  {
    ScopedSpan layers(&tracer, "core.layers", op);
    double t = NowSeconds();
    {
      ScopedSpan span(&tracer, "marginals.publish", op);
      for (std::size_t j = 0; j < m; ++j) {
        auto hist = dpcopula::hist::Histogram::FromColumn(table, j);
        if (!hist.ok()) return FailJson("histogram", hist.status());
        const double d = static_cast<double>(hist->num_cells());
        dct_terms += d * d;
        auto noisy = dpcopula::marginals::PublishMarginal(
            dpcopula::marginals::MarginalMethod::kEfpa, hist->data(),
            eps_per_margin, &rng);
        if (!noisy.ok()) return FailJson("publish", noisy.status());
        counts.push_back(dpcopula::marginals::ProjectToNoisyTotal(*noisy));
        auto cdf = stats::EmpiricalCdf::FromCounts(counts.back());
        if (!cdf.ok()) return FailJson("cdf", cdf.status());
        cdfs.push_back(std::move(cdf).ValueOrDie());
      }
    }
    publish_s = NowSeconds() - t;
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "copula.estimate", op);
      copula::KendallEstimatorOptions options;
      options.num_threads = kCliThreads;
      auto est = copula::EstimateKendallCorrelation(table, epsilon2, &rng,
                                                    options);
      if (!est.ok()) return FailJson("estimate", est.status());
      estimate = std::move(est).ValueOrDie();
    }
    estimate_s = NowSeconds() - t;
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "copula.plan_build", op);
      auto chol = dpcopula::linalg::CholeskyDecompose(estimate.correlation);
      if (!chol.ok()) return FailJson("cholesky", chol.status());
      std::vector<stats::InverseCdfTable> tables;
      for (const auto& cdf : cdfs) tables.emplace_back(cdf);
    }
    plan_s = NowSeconds() - t;
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "copula.sample", op);
      auto sampled = copula::SampleSyntheticData(
          table.schema(), cdfs, estimate.correlation, table.num_rows(), &rng,
          kCliThreads);
      if (!sampled.ok()) return FailJson("sample", sampled.status());
    }
    sample_s = NowSeconds() - t;
  }

  // The estimator's two stats kernels, timed from outside on a subsample of
  // the size the estimator used: per-column rank caches, then every pair.
  double rank_s = 0, tau_s = 0;
  {
    ScopedSpan breakdown(&tracer, "copula.estimate_kernels", op);
    const auto n = table.num_rows();
    const auto n_used = static_cast<std::size_t>(estimate.rows_used);
    std::vector<std::vector<double>> cols(m);
    dpcopula::Rng pick(args.Seed("seed") ^ 0x5eedULL);
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < n_used && n_used < n; ++i) {
      const auto j = static_cast<std::size_t>(pick.NextInt64InRange(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
      std::swap(idx[i], idx[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      cols[j].resize(n_used);
      for (std::size_t i = 0; i < n_used; ++i) {
        cols[j][i] = table.column(j)[idx[i]];
      }
    }
    std::vector<stats::RankColumn> ranks(m);
    double t = NowSeconds();
    {
      ScopedSpan span(&tracer, "stats.rank_cache", op);
      dpcopula::ParallelFor(
          0, m, 1,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t j = begin; j < end; ++j) {
              auto built = stats::BuildRankColumn(cols[j]);
              if (built.ok()) ranks[j] = std::move(built).ValueOrDie();
            }
          },
          kCliThreads);
    }
    rank_s = NowSeconds() - t;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a + 1; b < m; ++b) pairs.emplace_back(a, b);
    }
    std::vector<double> taus(pairs.size(), 0.0);
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "stats.tau_pairs", op);
      dpcopula::ParallelFor(
          0, pairs.size(), 1,
          [&](std::size_t begin, std::size_t end) {
            static thread_local stats::TauWorkspace workspace;
            for (std::size_t i = begin; i < end; ++i) {
              auto tau = stats::KendallTauFromRanks(
                  ranks[pairs[i].first], ranks[pairs[i].second], &workspace);
              if (tau.ok()) taus[i] = *tau;
            }
          },
          kCliThreads);
    }
    tau_s = NowSeconds() - t;
  }

  if (args.Has("model-out")) {
    // The whole-table model, saved for serving (the release workloads'
    // traced mode serves it to time the serve layers on its shape).
    dpcopula::core::DpCopulaModel model;
    model.schema = table.schema();
    model.marginal_counts = std::move(counts);
    model.correlation = estimate.correlation;
    model.fitted_rows = table.num_rows();
    Status saved = dpcopula::core::SaveModel(model, args.Str("model-out", ""));
    if (!saved.ok()) return FailJson("save", saved);
  }
  if (Status s = WriteTrace(tracer, args); !s.ok()) return FailJson("trace", s);
  JsonLine out;
  out.Bool("ok", true)
      .Num("publish_s", publish_s)
      .Num("dct_terms", dct_terms)
      .Num("estimate_s", estimate_s)
      .Num("rank_cache_s", rank_s)
      .Num("tau_pairs_s", tau_s)
      .Int("tau_pairs", static_cast<std::int64_t>(m * (m - 1) / 2))
      .Int("rows_used", estimate.rows_used)
      .Int("repaired", estimate.repaired ? 1 : 0)
      .Num("plan_build_s", plan_s)
      .Num("sample_s", sample_s)
      .Int("sample_rows", static_cast<std::int64_t>(table.num_rows()));
  AddCoverage(tracer, &out);
  out.Print();
  return 0;
}

int RunCheck(const Args& args) {
  const std::string workload = args.Str("workload", "");
  const std::vector<std::string> outputs = SplitComma(args.Str("outputs", ""));
  const std::vector<std::string> rows_text = SplitComma(args.Str("rows", ""));
  if (outputs.empty() || outputs.size() != rows_text.size()) {
    return FailJson("check", Status::InvalidArgument("--outputs and --rows "
                                                 "must list the same files"));
  }
  Result<Table> original = dpcopula::data::ReadCsv(args.Str("original", ""));
  if (!original.ok()) return FailJson("read original", original.status());
  const auto& schema = original->schema();
  const auto queries = QuerySet(workload, schema);

  // Truth and every output's parse-back run side by side; each output is
  // then scored on its own thread. All of it is independent per output, so
  // the score does not depend on scheduling.
  const std::size_t k = outputs.size();
  std::vector<Table> tables(k);
  std::vector<std::string> errors(k);
  std::vector<double> scores(k, 0.0);
  std::vector<double> truth;
  Status truth_status = Status::OK();
  {
    std::vector<std::thread> workers;
    workers.emplace_back([&] {
      auto t = dpcopula::query::ComputeTrueAnswers(*original, queries);
      if (t.ok()) {
        truth = std::move(t).ValueOrDie();
      } else {
        truth_status = t.status();
      }
    });
    for (std::size_t i = 0; i < k; ++i) {
      workers.emplace_back([&, i] {
        if (HeaderLine(outputs[i]) != SchemaHeader(schema)) {
          errors[i] = "header does not match the input schema";
          return;
        }
        auto read = dpcopula::data::ReadCsvWithSchema(outputs[i], schema);
        if (!read.ok()) {
          errors[i] = "parse back: " + read.status().ToString();
          return;
        }
        if (Status valid = read->Validate(); !valid.ok()) {
          errors[i] = "outside the input's domain bounds";
          return;
        }
        const auto expected_rows =
            static_cast<std::size_t>(std::atoll(rows_text[i].c_str()));
        if (read->num_rows() != expected_rows) {
          errors[i] = "row count " + std::to_string(read->num_rows()) +
                      " != released " + std::to_string(expected_rows);
          return;
        }
        // Hybrid releases emit the noisy partition counts; they must stay
        // within 1% of the input size.
        const double n = static_cast<double>(original->num_rows());
        if (std::abs(static_cast<double>(expected_rows) - n) > 0.01 * n) {
          errors[i] = "row count far from the input's";
          return;
        }
        tables[i] = std::move(read).ValueOrDie();
      });
    }
    for (auto& w : workers) w.join();
  }
  if (!truth_status.ok()) return FailJson("truth", truth_status);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < k; ++i) {
      if (!errors[i].empty()) continue;
      workers.emplace_back([&, i] {
        dpcopula::baselines::TableEstimator estimator(std::move(tables[i]),
                                                      "release");
        auto eval = dpcopula::query::EvaluateWorkloadWithTruth(
            truth, estimator, queries, SanityBound(workload));
        if (eval.ok()) {
          scores[i] = eval->mean_relative_error;
        } else {
          errors[i] = "evaluate: " + eval.status().ToString();
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  std::string all_errors;
  std::int64_t failed = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!errors[i].empty()) {
      ++failed;
      all_errors += outputs[i] + ": " + errors[i] + "; ";
    }
    sum += scores[i];
  }
  JsonLine()
      .Bool("ok", failed == 0)
      .Int("failed", failed)
      .Str("error", all_errors)
      .Num("rel_error", sum / static_cast<double>(k))
      .Int("queries", static_cast<std::int64_t>(queries.size()))
      .Print();
  return 0;
}

int RunProbe(const Args&) {
  // A fixed dependent floating-point chain: its time moves only with the
  // host (clock, contention), never with the code under test.
  const double t = NowSeconds();
  volatile double sink = 0.0;
  double x = 1.0;
  for (int i = 0; i < 100'000'000; ++i) x = x * 1.0000000001 + 1e-12;
  sink = x;
  (void)sink;
  JsonLine().Bool("ok", true).Num("probe_s", NowSeconds() - t).Print();
  return 0;
}

}  // namespace perfbench
