// Quickstart: synthesize a differentially private copy of a small
// two-attribute dataset and compare a few statistics.
//
//   $ ./build/examples/quickstart
//
// Walks the minimal API path: build a Table, pick DpCopulaOptions, call
// core::Synthesize, inspect the result.
#include <cstdio>

#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/generator.h"
#include "stats/descriptive.h"
#include "stats/kendall.h"

int main() {
  using namespace dpcopula;  // NOLINT(build/namespaces) — example binary.

  // 1. Make a toy dataset: 10000 rows, two correlated attributes on
  //    domains of size 100 (in real use you would load your own table,
  //    e.g. with data::ReadCsv).
  Rng rng(7);
  std::vector<data::MarginSpec> margins = {
      data::MarginSpec::Gaussian("age_like", 100),
      data::MarginSpec::Zipf("income_like", 100, 1.1),
  };
  auto correlation = data::Equicorrelation(2, 0.6);
  auto original =
      data::GenerateGaussianDependent(margins, *correlation, 10000, &rng);
  if (!original.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 original.status().ToString().c_str());
    return 1;
  }

  // 2. Synthesize with a total privacy budget of epsilon = 1.
  core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.budget_ratio_k = 8.0;  // eps1/eps2 split (margins vs correlation).
  auto result = core::Synthesize(*original, options, &rng);
  if (!result.ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 3. Compare: the synthetic table mimics margins and dependence without
  //    exposing any individual row.
  const data::Table& synthetic = result->synthetic;
  std::printf("original rows: %zu, synthetic rows: %zu\n",
              original->num_rows(), synthetic.num_rows());
  std::printf("column means (original vs synthetic):\n");
  for (std::size_t j = 0; j < 2; ++j) {
    std::printf("  %-12s %8.2f vs %8.2f\n",
                original->schema().attribute(j).name.c_str(),
                stats::Mean(original->column(j)),
                stats::Mean(synthetic.column(j)));
  }
  const double tau_orig =
      *stats::KendallTau(original->column(0), original->column(1));
  const double tau_synth =
      *stats::KendallTau(synthetic.column(0), synthetic.column(1));
  std::printf("Kendall tau: %.3f vs %.3f\n", tau_orig, tau_synth);
  std::printf("DP correlation matrix estimate:\n%s",
              result->model.correlation.ToString(3).c_str());
  std::printf("privacy budget spent: %.4f of %.4f\n", result->budget.spent(),
              result->budget.total_epsilon());
  return 0;
}
