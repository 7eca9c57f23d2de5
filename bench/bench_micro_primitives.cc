// Google-benchmark micro suite for the numeric primitives underlying
// DPCopula: Kendall's tau (the O(n log n) claim of §4.2), normal inverse
// CDF, Cholesky, multivariate-normal sampling, the Haar/DCT transforms,
// the EFPA marginal publisher, and the CSV codec with serve's SAMPLE
// renderer.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/sampler.h"
#include "copula/t_copula.h"
#include "data/census.h"
#include "data/csv.h"
#include "data/generator.h"
#include "hist/dct.h"
#include "hist/summed_area.h"
#include "hist/wavelet.h"
#include "linalg/cholesky.h"
#include "marginals/efpa.h"
#include "serve/protocol.h"
#include "stats/distributions.h"
#include "stats/empirical_cdf.h"
#include "stats/kendall.h"
#include "stats/normal.h"

namespace {

using dpcopula::Rng;

std::pair<std::vector<double>, std::vector<double>> MakePair(std::size_t n) {
  Rng rng(42);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.NextGaussian();
    y[i] = 0.5 * x[i] + rng.NextGaussian();
  }
  return {std::move(x), std::move(y)};
}

void BM_KendallTauFast(benchmark::State& state) {
  const auto [x, y] = MakePair(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::stats::KendallTau(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KendallTauFast)->Range(1 << 8, 1 << 16)->Complexity();

void BM_NormalInverseCdf(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dpcopula::stats::NormalInverseCdf(rng.NextDoubleOpen()));
  }
}
BENCHMARK(BM_NormalInverseCdf);

// Scalar loop vs the batch entry point (AVX2 when compiled in and the CPU
// supports it — the two are bit-identical, so this row shows the pure
// dispatch/vectorization effect). Arg is the batch length.
void BM_NormalInverseCdfBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Rng rng(7);
  std::vector<double> p(n), z(n);
  for (double& v : p) v = rng.NextDoubleOpen();
  for (auto _ : state) {
    if (batched) {
      dpcopula::stats::NormalInverseCdfBatch(p.data(), z.data(), n);
    } else {
      dpcopula::stats::internal::NormalInverseCdfBatchScalar(p.data(),
                                                             z.data(), n);
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NormalInverseCdfBatch)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->ArgNames({"n", "simd"});

void BM_NormalCdfBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Rng rng(7);
  std::vector<double> x(n), out(n);
  for (double& v : x) v = 8.0 * (rng.NextDouble() - 0.5);
  for (auto _ : state) {
    if (batched) {
      dpcopula::stats::NormalCdfBatch(x.data(), out.data(), n);
    } else {
      dpcopula::stats::internal::NormalCdfBatchScalar(x.data(), out.data(),
                                                      n);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NormalCdfBatch)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->ArgNames({"n", "simd"});

void BM_Cholesky(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  auto corr = dpcopula::data::Ar1Correlation(m, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::linalg::CholeskyDecompose(corr));
  }
}
BENCHMARK(BM_Cholesky)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_SampleSynthetic(benchmark::State& state) {
  const std::size_t m = 8;
  Rng rng(11);
  dpcopula::data::Schema schema{[] {
    std::vector<dpcopula::data::Attribute> attrs;
    for (std::size_t j = 0; j < 8; ++j) {
      attrs.push_back({"x" + std::to_string(j), 1000});
    }
    return attrs;
  }()};
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < m; ++j) {
    cdfs.push_back(*dpcopula::stats::EmpiricalCdf::FromCounts(
        std::vector<double>(1000, 1.0)));
  }
  const auto corr = dpcopula::data::Ar1Correlation(m, 0.5);
  const auto rows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::copula::SampleSyntheticData(
        schema, cdfs, corr, rows, &rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleSynthetic)->Arg(1000)->Arg(10000);

void BM_ForwardHaar(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(state.range(0)));
  for (double& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::hist::ForwardHaar(x));
  }
}
BENCHMARK(BM_ForwardHaar)->Range(1 << 8, 1 << 16);

void BM_ForwardDct(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> x(static_cast<std::size_t>(state.range(0)));
  for (double& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::hist::ForwardDct(x));
  }
}
BENCHMARK(BM_ForwardDct)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1248)
    ->Arg(4096)
    ->UseRealTime();

void BM_InverseDct(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> c(static_cast<std::size_t>(state.range(0)));
  for (double& v : c) v = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::hist::InverseDct(c));
  }
}
BENCHMARK(BM_InverseDct)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1248)
    ->Arg(4096)
    ->UseRealTime();

void BM_EfpaPublish(benchmark::State& state) {
  Rng rng(19);
  std::vector<double> counts(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double z = (static_cast<double>(i) - 500.0) / 150.0;
    counts[i] = 1000.0 * std::exp(-0.5 * z * z);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dpcopula::marginals::PublishEfpaHistogram(counts, 1.0, &rng));
  }
}
BENCHMARK(BM_EfpaPublish)->Arg(1000)->Arg(1248);

void BM_StudentTInverseCdf(benchmark::State& state) {
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dpcopula::stats::StudentTInverseCdf(rng.NextDoubleOpen(), 4.0));
  }
}
BENCHMARK(BM_StudentTInverseCdf);

void BM_TCopulaLogDensity(benchmark::State& state) {
  auto corr = dpcopula::data::Ar1Correlation(8, 0.5);
  auto copula = dpcopula::copula::TCopula::Create(corr, 4.0);
  Rng rng(29);
  std::vector<double> u(8);
  for (double& v : u) v = rng.NextDoubleOpen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(copula->LogDensity(u));
  }
}
BENCHMARK(BM_TCopulaLogDensity);

void BM_KendallEstimatorThreads(benchmark::State& state) {
  Rng data_rng(31);
  std::vector<dpcopula::data::MarginSpec> specs;
  for (int j = 0; j < 8; ++j) {
    specs.push_back(dpcopula::data::MarginSpec::Gaussian(
        "x" + std::to_string(j), 1000));
  }
  auto table = dpcopula::data::GenerateGaussianDependent(
      specs, dpcopula::data::Ar1Correlation(8, 0.5), 20000, &data_rng);
  dpcopula::copula::KendallEstimatorOptions opts;
  opts.subsample = false;
  opts.num_threads = static_cast<int>(state.range(0));
  Rng rng(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::copula::EstimateKendallCorrelation(
        *table, 1.0, &rng, opts));
  }
}
BENCHMARK(BM_KendallEstimatorThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SummedAreaVsDirectRangeSum(benchmark::State& state) {
  Rng rng(41);
  auto h = dpcopula::hist::Histogram::Create({256, 256});
  for (double& v : h->mutable_data()) v = rng.NextDouble();
  const bool use_sat = state.range(0) != 0;
  auto sat = dpcopula::hist::SummedAreaTable::Build(*h);
  for (auto _ : state) {
    const std::int64_t a = rng.NextInt64InRange(0, 127);
    const std::int64_t b = rng.NextInt64InRange(128, 255);
    if (use_sat) {
      benchmark::DoNotOptimize(sat->RangeSum({a, a}, {b, b}));
    } else {
      benchmark::DoNotOptimize(h->RangeSum({a, a}, {b, b}));
    }
  }
}
BENCHMARK(BM_SummedAreaVsDirectRangeSum)->Arg(0)->Arg(1);

// The CSV codec and the SAMPLE renderer on census-shaped tables (8
// small-domain attributes). Wall time, since the write includes an fsync.
dpcopula::data::Table CensusTable(std::int64_t rows) {
  Rng rng(43);
  return dpcopula::data::GenerateBrazilCensus(static_cast<std::size_t>(rows),
                                              &rng)
      .ValueOrDie();
}

std::string CsvBenchPath() {
  return (std::filesystem::temp_directory_path() / "dpcopula_bench_micro.csv")
      .string();
}

void BM_CsvWrite(benchmark::State& state) {
  const auto table = CensusTable(state.range(0));
  const std::string path = CsvBenchPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::data::WriteCsv(table, path));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_CsvWrite)->Arg(100000)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_CsvRead(benchmark::State& state) {
  const std::string path = CsvBenchPath();
  if (!dpcopula::data::WriteCsv(CensusTable(state.range(0)), path).ok()) {
    state.SkipWithError("cannot write the input CSV");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpcopula::data::ReadCsv(path));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_CsvRead)->Arg(100000)->UseRealTime()->Unit(
    benchmark::kMillisecond);

// Args: rows, binary framing. 100 csv rows is serve's small request,
// 20,000 binary rows its bulk one.
void BM_RenderSample(benchmark::State& state) {
  const auto table = CensusTable(state.range(0));
  const bool binary = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dpcopula::serve::RenderSampleResponse(table, binary));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_RenderSample)
    ->Args({100, 0})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
