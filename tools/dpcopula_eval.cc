// dpcopula_eval — utility/privacy report for a synthetic release.
//
// Compares a synthetic CSV against the original it was derived from:
//  - range-count workload accuracy (relative + absolute error),
//  - per-attribute marginal accuracy,
//  - empirical privacy audit (DCR distribution, attribute disclosure).
//
//   dpcopula_eval --original data.csv --synthetic synth.csv [--queries N]
//                 [--sanity S] [--threads N] [--seed N]
//                 [--max-bad-rows N] [--strict-csv]
//                 [--trace-json PATH] [--trace-chrome PATH]
//                 [--log-level LEVEL]
//
// --threads parallelizes the O(n^2) DCR privacy audit (0 = all hardware
// threads); the report is identical for every thread count.
// --max-bad-rows quarantines up to N malformed/non-finite rows per input
// file (strict by default; --strict-csv forces the default explicitly).
// --trace-json writes a JSON run report (phase spans, metrics, peak RSS and
// hardware counters; no budget section — evaluation spends no privacy).
// --trace-chrome writes the span timeline in Chrome trace-event JSON
// (Perfetto / chrome://tracing).
#include <cstdio>
#include <optional>
#include <string>

#include "baselines/range_estimator.h"
#include "common/rng.h"
#include "data/csv.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/fidelity_metrics.h"
#include "query/privacy_metrics.h"
#include "query/workload.h"
#include "flag_value.h"
#include "obs_flags.h"

namespace {

using dpcopula::tools::FlagDouble;
using dpcopula::tools::FlagUint;
using dpcopula::tools::ObsFlags;

struct CliArgs {
  std::string original;
  std::string synthetic;
  std::size_t queries = 500;
  double sanity = 1.0;
  int threads = 0;  // 0 = hardware concurrency.
  std::size_t max_bad_rows = 0;
  bool strict_csv = false;
  unsigned long long seed = 42;
  ObsFlags obs{"warn"};
};

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--original") {
      const char* v = next();
      if (!v) return false;
      args->original = v;
    } else if (flag == "--synthetic") {
      const char* v = next();
      if (!v) return false;
      args->synthetic = v;
    } else if (flag == "--queries") {
      if (!FlagUint(flag, next(), &args->queries)) return false;
    } else if (flag == "--sanity") {
      if (!FlagDouble(flag, next(), &args->sanity)) return false;
    } else if (flag == "--threads") {
      if (!FlagUint(flag, next(), &args->threads)) return false;
    } else if (flag == "--max-bad-rows") {
      if (!FlagUint(flag, next(), &args->max_bad_rows)) return false;
    } else if (flag == "--strict-csv") {
      args->strict_csv = true;
    } else if (flag == "--seed") {
      if (!FlagUint(flag, next(), &args->seed)) return false;
    } else if (ObsFlags::Owns(flag)) {
      const char* v = next();
      if (!v) return false;
      args->obs.Set(flag, v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->original.empty() && !args->synthetic.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpcopula;  // NOLINT(build/namespaces) — CLI binary.
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --original data.csv --synthetic synth.csv "
                 "[--queries N] [--sanity S] [--threads N] [--seed N] "
                 "[--max-bad-rows N] [--strict-csv] %s\n",
                 argv[0], ObsFlags::kUsage);
    return 2;
  }
  if (!args.obs.Start()) return 2;

  data::ReadCsvOptions read_options;
  read_options.max_bad_rows = args.strict_csv ? 0 : args.max_bad_rows;
  // Reads one input, reporting its quarantined rows; nullopt after a
  // failure, which it has printed.
  auto read_input = [&](const std::string& path, const data::Schema* schema)
      -> std::optional<data::Table> {
    auto read =
        schema == nullptr
            ? data::ReadCsvTolerant(path, read_options)
            : data::ReadCsvTolerantWithSchema(path, *schema, read_options);
    if (!read.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                   read.status().ToString().c_str());
      return std::nullopt;
    }
    if (read->stats.bad_rows > 0) {
      std::fprintf(stderr,
                   "%s: quarantined %zu bad rows (first at line %zu)\n",
                   path.c_str(), read->stats.bad_rows,
                   read->stats.first_bad_line);
    }
    return std::move(read->table);
  };

  std::optional<data::Table> original = read_input(args.original, nullptr);
  if (!original) return 1;
  // Read the synthetic data under the original's schema so both tables
  // agree on domains even if the synthetic file lacks extreme values.
  std::optional<data::Table> synthetic =
      read_input(args.synthetic, &original->schema());
  if (!synthetic) return 1;
  std::printf("original:  %zu rows x %zu attributes\n", original->num_rows(),
              original->num_columns());
  std::printf("synthetic: %zu rows\n\n", synthetic->num_rows());

  Rng rng(args.seed);
  baselines::TableEstimator estimator(*synthetic, "synthetic");

  // Overall workload accuracy.
  {
    obs::Span workload_span("eval.workload");
    const auto workload =
        query::RandomWorkload(original->schema(), args.queries, &rng);
    auto eval =
        query::EvaluateWorkload(*original, estimator, workload, args.sanity);
    if (!eval.ok()) {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   eval.status().ToString().c_str());
      return 1;
    }
    std::printf("random range-count workload (%zu queries, sanity %.2f):\n",
                args.queries, args.sanity);
    std::printf("  mean RE %.4f   median RE %.4f   mean ABS %.2f\n\n",
                eval->mean_relative_error, eval->median_relative_error,
                eval->mean_absolute_error);

    // Per-attribute marginal accuracy.
    std::printf("per-attribute marginal accuracy:\n");
    for (std::size_t j = 0; j < original->num_columns(); ++j) {
      auto marginal = query::MarginalWorkload(original->schema(), j,
                                              args.queries / 2, &rng);
      if (!marginal.ok()) continue;
      auto me = query::EvaluateWorkload(*original, estimator, *marginal,
                                        args.sanity);
      if (!me.ok()) continue;
      std::printf("  %-20s mean RE %.4f\n",
                  original->schema().attribute(j).name.c_str(),
                  me->mean_relative_error);
    }
  }

  // Statistical fidelity report.
  {
    obs::Span fidelity_span("eval.fidelity");
    auto fidelity = query::EvaluateFidelity(*original, *synthetic);
    if (fidelity.ok()) {
      std::printf("\nstatistical fidelity:\n");
      for (std::size_t j = 0; j < fidelity->marginal_tv.size(); ++j) {
        std::printf("  TV[%s] = %.4f\n",
                    original->schema().attribute(j).name.c_str(),
                    fidelity->marginal_tv[j]);
      }
      std::printf("  mean marginal TV = %.4f\n", fidelity->mean_marginal_tv);
      std::printf("  max pairwise tau deviation = %.4f\n",
                  fidelity->dependence_distance);
    }
  }

  // Privacy audit.
  {
    obs::Span dcr_span("eval.dcr");
    auto dcr = query::DistanceToClosestRecord(
        *synthetic, *original, /*max_rows=*/2000, args.threads);
    if (dcr.ok()) {
      std::printf(
          "\nprivacy audit:\n  DCR mean %.4f  median %.4f  p05 %.4f  "
          "exact-match rows %.2f%%\n",
          dcr->mean, dcr->median, dcr->p05, 100.0 * dcr->frac_zero);
    }
    for (std::size_t j = 0; j < original->num_columns(); ++j) {
      auto risk = query::AttributeDisclosureRisk(*synthetic, *original, j);
      auto baseline = query::MajorityGuessAccuracy(*original, j);
      if (risk.ok() && baseline.ok()) {
        std::printf("  disclosure[%s]: %.3f (majority baseline %.3f)\n",
                    original->schema().attribute(j).name.c_str(), *risk,
                    *baseline);
      }
    }
  }

  // Evaluation spends no privacy budget; the report carries only the span
  // tree and metrics.
  return args.obs.Finish(nullptr) ? 0 : 1;
}
