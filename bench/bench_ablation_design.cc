// Ablation harness for the design choices DESIGN.md calls out:
//   A.  marginal publishers (EFPA / Dwork / NoiseFirst / StructureFirst) —
//       reconstruction L2 on smooth vs spiky margins;
//   A2. the same publishers *inside* DPCopula — end-to-end range-query
//       error on census-style data;
//   B.  simplex-projection consistency post-processing vs naive clamping;
//   C.  synthetic-data oversampling factor (post-processing, zero privacy
//       cost) vs query accuracy;
//   D.  Kendall tau subsampling on/off — accuracy/runtime trade;
//   E.  copula family on tail-dependent data — Gaussian vs Student-t.
#include <cstdio>

#include "bench/bench_util.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "data/census.h"
#include "query/metrics.h"
#include "marginals/dwork.h"
#include "marginals/efpa.h"
#include "marginals/noisefirst.h"
#include "marginals/postprocess.h"
#include "marginals/structurefirst.h"
#include "stats/empirical_cdf.h"

using namespace dpcopula;  // NOLINT(build/namespaces) — bench binary.

namespace {

double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc);
}

void AblationMarginals(const query::ExperimentConfig& cfg, Rng* master) {
  std::printf("\n[A] marginal publisher: reconstruction L2 error, eps=0.1\n");
  bench::PrintSeriesHeader("margin",
                           {"EFPA", "Dwork", "NoiseFirst", "StructFirst"});
  // Smooth (gaussian bump) and spiky (permuted zipf) margins, 512 bins.
  std::vector<std::pair<std::string, std::vector<double>>> margins;
  {
    std::vector<double> smooth(512);
    for (std::size_t i = 0; i < smooth.size(); ++i) {
      const double z = (static_cast<double>(i) - 256.0) / 85.0;
      smooth[i] = 2000.0 * std::exp(-0.5 * z * z);
    }
    margins.emplace_back("smooth", std::move(smooth));
  }
  {
    std::vector<double> spiky(512, 1.0);
    for (std::size_t i = 0; i < spiky.size(); ++i) {
      spiky[(i * 337) % 512] =
          2000.0 * std::pow(static_cast<double>(i + 1), -0.8);
    }
    margins.emplace_back("spiky", std::move(spiky));
  }
  for (const auto& [name, counts] : margins) {
    double efpa_err = 0.0, dwork_err = 0.0, nf_err = 0.0, sf_err = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
      Rng rng = master->Split();
      efpa_err += L2(counts, *marginals::PublishEfpaHistogram(counts, 0.1,
                                                              &rng));
      dwork_err += L2(counts, *marginals::PublishDworkHistogram(counts, 0.1,
                                                                &rng));
      nf_err += L2(counts, *marginals::PublishNoiseFirstHistogram(counts, 0.1,
                                                                  &rng));
      sf_err += L2(counts, *marginals::PublishStructureFirstHistogram(
                               counts, 0.1, &rng));
    }
    bench::PrintSeriesRowLabel(
        name, {efpa_err / 10.0, dwork_err / 10.0, nf_err / 10.0,
               sf_err / 10.0});
  }
  (void)cfg;
}

void AblationMarginalsEndToEnd(const query::ExperimentConfig& cfg,
                               Rng* master) {
  std::printf(
      "\n[A2] marginal publisher inside DPCopula: end-to-end RE on "
      "US-census-style data, eps=0.5\n");
  bench::PrintSeriesHeader("method", {"RE"});
  Rng data_rng = master->Split();
  auto table = data::GenerateUsCensus(
      static_cast<std::size_t>(cfg.num_tuples), &data_rng);
  const double sanity = query::UsCensusSanityBound(cfg.num_tuples);
  const std::pair<const char*, marginals::MarginalMethod> methods[] = {
      {"efpa", marginals::MarginalMethod::kEfpa},
      {"dwork", marginals::MarginalMethod::kDwork},
      {"noisefirst", marginals::MarginalMethod::kNoiseFirst},
      {"structfirst", marginals::MarginalMethod::kStructureFirst},
  };
  for (const auto& [label, method] : methods) {
    double total = 0.0;
    for (std::size_t run = 0; run < cfg.num_runs; ++run) {
      Rng rng = master->Split();
      core::DpCopulaOptions opts;
      opts.epsilon = 0.5;
      opts.marginal_method = method;
      auto res = core::Synthesize(*table, opts, &rng);
      baselines::TableEstimator est(res->synthetic, "DPCopula");
      const auto workload =
          query::RandomWorkload(table->schema(), cfg.queries_per_run, &rng);
      total += query::EvaluateWorkload(*table, est, workload, sanity)
                   ->mean_relative_error;
    }
    bench::PrintSeriesRowLabel(label,
                               {total / static_cast<double>(cfg.num_runs)});
  }
}

void AblationProjection(const query::ExperimentConfig& cfg, Rng* master) {
  std::printf(
      "\n[B] consistency post-processing (phantom mass after noising a "
      "20k-record margin over 1000 bins, eps=0.05)\n");
  bench::PrintSeriesHeader("metric", {"clamp-only", "simplex-proj"});
  Rng rng = master->Split();
  std::vector<double> counts(1000, 20.0);  // 20k records, uniform margin.
  double clamp_mass = 0.0, proj_mass = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    auto noisy = *marginals::PublishDworkHistogram(counts, 0.05, &rng);
    double clamped = 0.0;
    for (double v : noisy) clamped += std::max(0.0, v);
    clamp_mass += clamped;
    const auto projected = marginals::ProjectToNoisyTotal(noisy);
    for (double v : projected) proj_mass += v;
  }
  bench::PrintSeriesRowLabel("mass vs 20000",
                             {clamp_mass / 10.0, proj_mass / 10.0});
  (void)cfg;
}

void AblationOversample(const query::ExperimentConfig& cfg, Rng* master) {
  std::printf("\n[C] oversampling factor vs relative error (2D, eps=1)\n");
  bench::PrintSeriesHeader("factor", {"RE"});
  data::Table table = bench::MakeGaussianTable(
      static_cast<std::size_t>(cfg.num_tuples), 2, cfg.domain_size, master);
  for (double factor : {1.0, 2.0, 4.0, 8.0}) {
    double total = 0.0;
    for (std::size_t run = 0; run < cfg.num_runs; ++run) {
      Rng rng = master->Split();
      core::DpCopulaOptions opts;
      opts.epsilon = 1.0;
      opts.oversample_factor = factor;
      auto res = core::Synthesize(table, opts, &rng);
      baselines::ScaledTableEstimator est(res->synthetic, 1.0 / factor,
                                          "DPCopula");
      const auto workload =
          query::RandomWorkload(table.schema(), cfg.queries_per_run, &rng);
      total += query::EvaluateWorkload(table, est, workload, 1.0)
                   ->mean_relative_error;
    }
    bench::PrintSeriesRow(factor,
                          {total / static_cast<double>(cfg.num_runs)});
  }
}

void AblationSubsample(const query::ExperimentConfig& cfg, Rng* master) {
  std::printf("\n[D] Kendall tau subsampling (4D, eps=1)\n");
  bench::PrintSeriesHeader("subsample", {"RE", "time(s)"});
  data::Table table = bench::MakeGaussianTable(
      static_cast<std::size_t>(cfg.num_tuples) * 4, 4, cfg.domain_size,
      master);
  for (const bool subsample : {true, false}) {
    double total = 0.0, secs = 0.0;
    for (std::size_t run = 0; run < cfg.num_runs; ++run) {
      Rng rng = master->Split();
      core::DpCopulaOptions opts;
      opts.epsilon = 1.0;
      opts.kendall.subsample = subsample;
      bench::Timer timer;
      auto res = core::Synthesize(table, opts, &rng);
      secs += timer.Seconds();
      baselines::TableEstimator est(res->synthetic, "DPCopula");
      const auto workload =
          query::RandomWorkload(table.schema(), cfg.queries_per_run, &rng);
      total += query::EvaluateWorkload(table, est, workload, 1.0)
                   ->mean_relative_error;
    }
    const double runs = static_cast<double>(cfg.num_runs);
    bench::PrintSeriesRowLabel(subsample ? "on" : "off",
                               {total / runs, secs / runs});
  }
}

void AblationFamily(const query::ExperimentConfig& cfg, Rng* master) {
  std::printf(
      "\n[E] copula family on tail-dependent data (2D t(3) dependence, "
      "eps=2): joint-tail count error\n");
  bench::PrintSeriesHeader("family", {"tail RE", "overall RE"});
  // Data with genuine tail dependence: a t(3) copula sampled through
  // gaussian-bump margins.
  Rng data_rng = master->Split();
  const std::int64_t domain = 500;
  const data::Schema schema({{"a", domain}, {"b", domain}});
  std::vector<double> bump(static_cast<std::size_t>(domain));
  for (std::size_t v = 0; v < bump.size(); ++v) {
    const double z = (static_cast<double>(v) - 250.0) / 80.0;
    bump[v] = std::exp(-0.5 * z * z);
  }
  const std::vector<stats::EmpiricalCdf> margins(
      2, *stats::EmpiricalCdf::FromCounts(bump));
  auto plan = copula::SamplingPlan::StudentT(
      schema, margins, *data::Equicorrelation(2, 0.6), 3.0);
  const data::Table table =
      *plan->Sample(static_cast<std::size_t>(cfg.num_tuples), &data_rng);
  // Tail workload: deep joint upper-corner boxes (2-3 sigma of the margin
  // bump), where the Gaussian copula's zero tail dependence shows.
  std::vector<query::RangeQuery> tail;
  for (std::int64_t cut : {410, 430, 450, 470}) {
    query::RangeQuery q;
    q.lo = {cut, cut};
    q.hi = {domain - 1, domain - 1};
    tail.push_back(q);
  }
  struct Variant {
    const char* label;
    core::CopulaFamily family;
    double dof;
  };
  const Variant variants[] = {
      {"gaussian", core::CopulaFamily::kGaussian, 0.0},
      {"t (dof=3 fixed)", core::CopulaFamily::kStudentT, 3.0},
      {"t (private dof)", core::CopulaFamily::kStudentT, 0.0},
  };
  const std::size_t runs = cfg.num_runs * 2;
  for (const Variant& variant : variants) {
    double tail_total = 0.0, overall_total = 0.0;
    for (std::size_t run = 0; run < runs; ++run) {
      Rng rng = master->Split();
      core::DpCopulaOptions opts;
      opts.epsilon = 2.0;
      opts.family = variant.family;
      opts.t_dof = variant.dof;
      auto res = core::Synthesize(table, opts, &rng);
      baselines::TableEstimator est(res->synthetic, "DPCopula");
      tail_total += query::EvaluateWorkload(table, est, tail, 1.0)
                        ->mean_relative_error;
      const auto workload =
          query::RandomWorkload(table.schema(), cfg.queries_per_run, &rng);
      overall_total += query::EvaluateWorkload(table, est, workload, 1.0)
                           ->mean_relative_error;
    }
    bench::PrintSeriesRowLabel(
        variant.label, {tail_total / static_cast<double>(runs),
                        overall_total / static_cast<double>(runs)});
  }
  std::printf(
      "expected: the t family cuts joint-tail error on tail-dependent data "
      "(Gaussian copulas have zero tail dependence).\n");
}

}  // namespace

int main() {
  auto cfg = query::ExperimentConfig::FromEnvironment();
  bench::PrintBanner("Ablations: DESIGN.md design choices", cfg);
  Rng master(cfg.seed);
  AblationMarginals(cfg, &master);
  AblationMarginalsEndToEnd(cfg, &master);
  AblationProjection(cfg, &master);
  AblationOversample(cfg, &master);
  AblationSubsample(cfg, &master);
  AblationFamily(cfg, &master);
  return 0;
}
