// dpcopula — command-line synthesizer.
//
// Reads a CSV of non-negative integer attributes (header row required),
// produces a differentially private synthetic CSV.
//
//   dpcopula --input data.csv --output synthetic.csv --epsilon 1.0
//
// Flags:
//   --input PATH        input CSV (header + integer cells)        [required]
//   --output PATH       output CSV                                [required]
//   --epsilon X         total privacy budget (default 1.0)
//   --k X               budget ratio eps1/eps2 (default 8)
//   --estimator NAME    kendall | mle (default kendall)
//   --family NAME       gaussian | t | auto (default gaussian)
//   --t-dof X           fixed t dof; 0 = estimate privately (default 0)
//   --no-hybrid         disable Algorithm 6 partitioning on small domains
//   --rows N            synthetic rows (default: same as input); needs
//                       --no-hybrid unless sampling with --model-in
//   --oversample X      oversampling factor (default 1)
//   --threads N         worker threads (0 = all hardware threads; default 0;
//                       output is identical for every value)
//   --seed N            RNG seed (default 42)
//   --max-bad-rows N    quarantine up to N malformed/non-finite input rows
//                       (counted per reason) instead of failing (default 0)
//   --strict-csv        fail on the first malformed input row (the default;
//                       overrides --max-bad-rows)
//   --model-out PATH    also save the fitted DP model; needs --no-hybrid
//   --trace-json PATH   write a JSON run report after the run: span tree,
//                       metrics with the per-stage histograms, peak RSS,
//                       hardware counters where the kernel allows them, and
//                       the budget audit
//   --trace-chrome PATH write the span timeline in Chrome trace-event JSON
//                       (load in Perfetto / chrome://tracing)
//   --log-level LEVEL   trace|debug|info|warn|error|off (default warn)
//
// Sampling a saved model instead of releasing from data:
//
//   dpcopula --model-in model.txt --output synthetic.csv [--rows N]
//            [--seed N]
//
// takes only --rows (default: the model's fitted rows), --seed, --threads
// and the obs flags; any flag that shapes a release from --input exits 2.
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "core/model_io.h"
#include "data/csv.h"
#include "obs/report.h"
#include "flag_value.h"
#include "obs_flags.h"

namespace {

using dpcopula::tools::FlagDouble;
using dpcopula::tools::FlagUint;
using dpcopula::tools::ObsFlags;

struct CliArgs {
  std::string input;
  std::string output;
  double epsilon = 1.0;
  double k = 8.0;
  std::string estimator = "kendall";
  std::string family = "gaussian";
  double t_dof = 0.0;
  bool hybrid = true;
  std::size_t rows = 0;
  double oversample = 1.0;
  int threads = 0;  // 0 = hardware concurrency.
  std::size_t max_bad_rows = 0;
  bool strict_csv = false;
  unsigned long long seed = 42;
  std::string model_out;
  std::string model_in;
  // The first flag given that only a release from --input uses.
  std::string release_flag;
  ObsFlags obs{"warn"};
};

// Sampling a saved model has nothing for these to change.
bool ReleaseOnly(const std::string& flag) {
  for (const char* f :
       {"--input", "--epsilon", "--k", "--estimator", "--family", "--t-dof",
        "--no-hybrid", "--oversample", "--max-bad-rows", "--strict-csv",
        "--model-out"}) {
    if (flag == f) return true;
  }
  return false;
}

const char* FamilyName(dpcopula::core::CopulaFamily family) {
  switch (family) {
    case dpcopula::core::CopulaFamily::kGaussian:
      return "gaussian";
    case dpcopula::core::CopulaFamily::kStudentT:
      return "t";
    case dpcopula::core::CopulaFamily::kAutoAic:
      return "auto";
    case dpcopula::core::CopulaFamily::kEmpirical:
      return "empirical";
  }
  return "unknown";
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input data.csv --output synth.csv "
               "[--epsilon X] [--k X] [--estimator kendall|mle] "
               "[--family gaussian|t|auto] [--t-dof X] [--no-hybrid] "
               "[--rows N] [--oversample X] [--threads N] [--seed N] "
               "[--max-bad-rows N] [--strict-csv] [--model-out PATH] %s\n"
               "       %s --model-in model.txt --output synth.csv "
               "[--rows N] [--seed N] [--threads N] %s\n",
               argv0, ObsFlags::kUsage, argv0, ObsFlags::kUsage);
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (args->release_flag.empty() && ReleaseOnly(flag)) {
      args->release_flag = flag;
    }
    if (flag == "--input") {
      const char* v = next();
      if (!v) return false;
      args->input = v;
    } else if (flag == "--output") {
      const char* v = next();
      if (!v) return false;
      args->output = v;
    } else if (flag == "--epsilon") {
      if (!FlagDouble(flag, next(), &args->epsilon)) return false;
    } else if (flag == "--k") {
      if (!FlagDouble(flag, next(), &args->k)) return false;
    } else if (flag == "--estimator") {
      const char* v = next();
      if (!v) return false;
      args->estimator = v;
    } else if (flag == "--family") {
      const char* v = next();
      if (!v) return false;
      args->family = v;
    } else if (flag == "--t-dof") {
      if (!FlagDouble(flag, next(), &args->t_dof)) return false;
    } else if (flag == "--no-hybrid") {
      args->hybrid = false;
    } else if (flag == "--rows") {
      if (!FlagUint(flag, next(), &args->rows)) return false;
    } else if (flag == "--oversample") {
      if (!FlagDouble(flag, next(), &args->oversample)) return false;
    } else if (flag == "--threads") {
      if (!FlagUint(flag, next(), &args->threads)) return false;
    } else if (flag == "--max-bad-rows") {
      if (!FlagUint(flag, next(), &args->max_bad_rows)) return false;
    } else if (flag == "--strict-csv") {
      args->strict_csv = true;
    } else if (flag == "--seed") {
      if (!FlagUint(flag, next(), &args->seed)) return false;
    } else if (flag == "--model-out") {
      const char* v = next();
      if (!v) return false;
      args->model_out = v;
    } else if (flag == "--model-in") {
      const char* v = next();
      if (!v) return false;
      args->model_in = v;
    } else if (ObsFlags::Owns(flag)) {
      const char* v = next();
      if (!v) return false;
      args->obs.Set(flag, v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  // --model-in replaces --input (no original data needed to sample).
  return (!args->input.empty() || !args->model_in.empty()) &&
         !args->output.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpcopula;  // NOLINT(build/namespaces) — CLI binary.
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  if (!args.model_in.empty() && !args.release_flag.empty()) {
    std::fprintf(stderr, "%s does not apply to sampling from --model-in\n",
                 args.release_flag.c_str());
    return 2;
  }
  // A hybrid release fits one model per partition and sizes each partition
  // from its noisy count, so it has neither one model to save nor a row
  // count to honour.
  if (args.hybrid && args.model_in.empty() &&
      (!args.model_out.empty() || args.rows > 0)) {
    std::fprintf(stderr, "%s needs --no-hybrid\n",
                 args.model_out.empty() ? "--rows" : "--model-out");
    return 2;
  }
  if (!args.obs.Start()) return 2;

  if (!args.model_in.empty()) {
    // Sample-only mode: load a published model and draw from it.
    auto model = core::LoadModel(args.model_in);
    if (!model.ok()) {
      std::fprintf(stderr, "failed to load model %s: %s\n",
                   args.model_in.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    Rng rng(args.seed);
    const std::size_t rows = args.rows > 0 ? args.rows : model->fitted_rows;
    auto plan = core::BuildSamplingPlan(*model);
    auto sample = plan.ok() ? plan->Sample(rows, &rng, args.threads)
                            : Result<data::Table>(plan.status());
    if (!sample.ok()) {
      std::fprintf(stderr, "sampling failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    Status io = data::WriteCsv(*sample, args.output);
    if (!io.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", args.output.c_str(),
                   io.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "sampled %zu rows from %s into %s\n",
                 sample->num_rows(), args.model_in.c_str(),
                 args.output.c_str());
    // Sampling a published model is pure post-processing — no budget to
    // audit, but the span tree / metrics are still worth the report.
    return args.obs.Finish(nullptr) ? 0 : 1;
  }

  data::ReadCsvOptions read_options;
  read_options.max_bad_rows = args.strict_csv ? 0 : args.max_bad_rows;
  auto read = data::ReadCsvTolerant(args.input, read_options);
  if (!read.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", args.input.c_str(),
                 read.status().ToString().c_str());
    return 1;
  }
  const data::CsvReadStats& stats = read->stats;
  if (stats.bad_rows > 0) {
    std::fprintf(stderr,
                 "quarantined %zu bad rows (first at line %zu): "
                 "%zu too-many-cells, %zu too-few-cells, %zu non-numeric, "
                 "%zu non-finite\n",
                 stats.bad_rows, stats.first_bad_line,
                 stats.bad_too_many_cells, stats.bad_too_few_cells,
                 stats.bad_non_numeric, stats.bad_non_finite);
  }
  const data::Table* table = &read->table;
  std::fprintf(stderr, "read %zu rows x %zu attributes from %s\n",
               table->num_rows(), table->num_columns(), args.input.c_str());

  core::DpCopulaOptions inner;
  inner.epsilon = args.epsilon;
  inner.budget_ratio_k = args.k;
  inner.oversample_factor = args.oversample;
  inner.num_threads = args.threads;
  if (args.rows > 0) inner.num_synthetic_rows = args.rows;
  if (args.estimator == "mle") {
    inner.estimator = core::CorrelationEstimator::kMle;
  } else if (args.estimator != "kendall") {
    std::fprintf(stderr, "unknown estimator '%s'\n", args.estimator.c_str());
    return 2;
  }
  if (args.family == "t") {
    inner.family = core::CopulaFamily::kStudentT;
    inner.t_dof = args.t_dof;
  } else if (args.family == "auto") {
    inner.family = core::CopulaFamily::kAutoAic;
  } else if (args.family != "gaussian") {
    std::fprintf(stderr, "unknown family '%s'\n", args.family.c_str());
    return 2;
  }

  Rng rng(args.seed);
  data::Table synthetic{data::Schema()};
  obs::BudgetAudit audit;
  if (args.hybrid) {
    core::HybridOptions hybrid;
    hybrid.epsilon = args.epsilon;
    hybrid.inner = inner;
    hybrid.num_threads = args.threads;
    auto result = core::SynthesizeHybrid(*table, hybrid, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "synthesis failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "hybrid: %lld partitions (%lld skipped)\n",
                 static_cast<long long>(result->num_partitions),
                 static_cast<long long>(result->num_skipped_partitions));
    std::fprintf(stderr, "budget spent: %.6f of %.6f\n",
                 result->budget.spent(), result->budget.total_epsilon());
    audit = obs::AuditFrom(result->budget);
    synthetic = std::move(result->synthetic);
  } else {
    auto result = core::Synthesize(*table, inner, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "synthesis failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "budget spent: %.6f of %.6f\n",
                 result->budget.spent(), result->budget.total_epsilon());
    std::fprintf(
        stderr,
        "estimator: kendall_rows_used=%lld mle_partitions=%lld "
        "correlation_repaired=%s family_used=%s t_dof_used=%g\n",
        static_cast<long long>(result->kendall_rows_used),
        static_cast<long long>(result->mle_partitions),
        result->correlation_repaired ? "yes" : "no",
        FamilyName(result->model.family), result->model.t_dof);
    audit = obs::AuditFrom(result->budget);
    if (!args.model_out.empty()) {
      Status ms = core::SaveModel(result->model, args.model_out);
      if (!ms.ok()) {
        std::fprintf(stderr, "model save failed: %s\n",
                     ms.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "model saved to %s\n", args.model_out.c_str());
    }
    synthetic = std::move(result->synthetic);
  }

  Status io = data::WriteCsv(synthetic, args.output);
  if (!io.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", args.output.c_str(),
                 io.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu synthetic rows to %s\n",
               synthetic.num_rows(), args.output.c_str());
  return args.obs.Finish(&audit) ? 0 : 1;
}
