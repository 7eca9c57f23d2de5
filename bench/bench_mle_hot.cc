// Hot-path benchmark for DPCopula-MLE estimation (Alg. 2) on the batched
// kernel (one counting pass per column and partition, one batched Phi^-1
// per distinct value bin, flat reusable workspaces, 256-row blocked
// correlation). Rows/sec is reported via SetItemsProcessed, over wall time
// where a row takes a thread count. The acceptance configuration is
// m = 10, N = 1M, epsilon2 = 1 (the paper's rule picks l = 1800, b = 555),
// single thread.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/gaussian_copula.h"
#include "copula/mle_estimator.h"
#include "data/generator.h"
#include "data/table.h"

namespace {

using dpcopula::Rng;
using dpcopula::copula::EstimateMleCorrelation;
using dpcopula::copula::MleEstimatorOptions;

constexpr std::size_t kRows = 1'000'000;
constexpr std::size_t kDims = 10;
// Discrete fixture: 64-value domains — a partition of b = 555 rows holds
// ~10 rows per distinct value, so the batched kernel's one-Phi^-1-per-bin
// rewrite pays off heavily. The common census-attribute case.
constexpr std::int64_t kDomain = 64;
// Wide fixture: 4096-value domains make most values distinct within a
// 555-row partition — the worst case for run batching (one run per row).
constexpr std::int64_t kWideDomain = 4096;

/// m equicorrelated (rho = 0.4) Gaussian-shaped discrete marginals — the
/// same fixture shape bench_sampler_hot / bench_kendall_hot use. Built once
/// per domain and shared by every benchmark.
const dpcopula::data::Table& Fixture(std::int64_t domain) {
  auto make = [](std::int64_t d) {
    Rng rng(42);
    std::vector<dpcopula::data::MarginSpec> specs;
    specs.reserve(kDims);
    for (std::size_t j = 0; j < kDims; ++j) {
      specs.push_back(dpcopula::data::MarginSpec::Gaussian(
          "a" + std::to_string(j), d));
    }
    auto corr = dpcopula::data::Equicorrelation(kDims, 0.4);
    return *dpcopula::data::GenerateGaussianDependent(specs, *corr, kRows,
                                                      &rng);
  };
  static const dpcopula::data::Table* discrete =
      new dpcopula::data::Table(make(kDomain));
  static const dpcopula::data::Table* wide =
      new dpcopula::data::Table(make(kWideDomain));
  return domain == kDomain ? *discrete : *wide;
}

void RunEstimator(benchmark::State& state, std::int64_t domain) {
  const auto& table = Fixture(domain);
  MleEstimatorOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    auto est = EstimateMleCorrelation(table, 1.0, &rng, options);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

void BM_MleHot_Batched(benchmark::State& state) {
  RunEstimator(state, kDomain);
}
BENCHMARK(BM_MleHot_Batched)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MleHotWide_Batched(benchmark::State& state) {
  RunEstimator(state, kWideDomain);
}
BENCHMARK(BM_MleHotWide_Batched)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Micro view of the phase-2 stage at the acceptance partition shape
// (b = 555, m = 10): the blocked packed correlation of one partition.
void BM_PartitionCorrelation(benchmark::State& state) {
  constexpr std::size_t kPartRows = 555;
  Rng rng(3);
  std::vector<std::vector<double>> scores(kDims,
                                          std::vector<double>(kPartRows));
  for (auto& col : scores) {
    for (auto& v : col) v = rng.NextGaussian();
  }
  std::vector<const double*> ptrs(kDims);
  for (std::size_t j = 0; j < kDims; ++j) ptrs[j] = scores[j].data();
  for (auto _ : state) {
    auto corr = dpcopula::copula::NormalScoresCorrelationTiledPacked(
        ptrs.data(), kDims, kPartRows);
    benchmark::DoNotOptimize(corr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPartRows));
}
BENCHMARK(BM_PartitionCorrelation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
