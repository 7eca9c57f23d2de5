#include "core/dpcopula.h"

#include <cmath>

#include "common/failpoint.h"
#include "copula/empirical_copula.h"
#include "copula/family_vote.h"
#include "copula/pseudo_obs.h"
#include "copula/sampler.h"
#include "dp/mechanisms.h"
#include "hist/histogram.h"
#include "marginals/postprocess.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::core {

namespace {

// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kMarginPublishSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.margin_publish_seconds");

/// The release is only valid if the charge log accounts for exactly the
/// advertised budget: an overspend is a privacy violation, an underspend
/// means some mechanism ran without charging (or the split logic drifted).
/// Either way the data must not leave this function.
Status VerifyBudgetConsumed(const dp::BudgetAccountant& budget,
                            double epsilon) {
  constexpr double kSlack = 1e-9;
  const double spent = budget.spent();
  if (std::abs(spent - epsilon) <= kSlack) return Status::OK();
  obs::Log(obs::LogLevel::kError, "synthesize.budget_mismatch")
      .Field("spent", spent)
      .Field("epsilon", epsilon);
  return Status::PrivacyBudgetExceeded(
      "budget audit failed: charged " + std::to_string(spent) +
      " but options.epsilon = " + std::to_string(epsilon) +
      " (|diff| > 1e-9); refusing to release data");
}

}  // namespace

Result<BudgetSplit> ComputeBudgetSplit(const DpCopulaOptions& options) {
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (!(options.budget_ratio_k > 0.0) ||
      !std::isfinite(options.budget_ratio_k)) {
    return Status::InvalidArgument("budget ratio k must be > 0");
  }
  const double k = options.budget_ratio_k;
  BudgetSplit split;
  split.epsilon1 = options.epsilon * k / (k + 1.0);
  split.epsilon2 = options.epsilon - split.epsilon1;
  return split;
}

Result<std::vector<stats::EmpiricalCdf>> ModelMarginalCdfs(
    const DpCopulaModel& model) {
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.reserve(model.marginal_counts.size());
  for (const auto& counts : model.marginal_counts) {
    DPC_ASSIGN_OR_RETURN(stats::EmpiricalCdf cdf,
                         stats::EmpiricalCdf::FromCounts(counts));
    cdfs.push_back(std::move(cdf));
  }
  return cdfs;
}

Result<copula::SamplingPlan> BuildSamplingPlan(const DpCopulaModel& model) {
  using copula::SamplingPlan;
  DPC_ASSIGN_OR_RETURN(const std::vector<stats::EmpiricalCdf> cdfs,
                       ModelMarginalCdfs(model));
  if (model.family == CopulaFamily::kGaussian) {
    return SamplingPlan::Gaussian(model.schema, cdfs, model.correlation);
  }
  if (model.family == CopulaFamily::kStudentT) {
    return SamplingPlan::StudentT(model.schema, cdfs, model.correlation,
                                  model.t_dof);
  }
  if (model.family == CopulaFamily::kEmpirical && model.grid) {
    return SamplingPlan::Empirical(model.schema, cdfs, model.grid);
  }
  return Status::InvalidArgument(
      "a model samples as gaussian, student-t, or empirical with its grid");
}

Result<SynthesisResult> Fit(const data::Table& table,
                            const DpCopulaOptions& options, Rng* rng) {
  const std::size_t m = table.num_columns();
  if (m == 0) return Status::InvalidArgument("table has no columns");
  DPC_RETURN_NOT_OK(table.Validate());

  if (!(options.oversample_factor > 0.0)) {
    return Status::InvalidArgument("oversample_factor must be > 0");
  }
  if (!std::isfinite(options.t_dof)) {
    return Status::InvalidArgument("t_dof must be finite");
  }
  const std::size_t base_rows = options.num_synthetic_rows > 0
                                    ? options.num_synthetic_rows
                                    : table.num_rows();
  const double scaled_rows =
      static_cast<double>(base_rows) * options.oversample_factor;
  // Sample refuses a row count past the longest column; refuse it here,
  // before any charge. The bound also keeps llround defined and refuses an
  // infinite oversample_factor.
  if (!(scaled_rows < static_cast<double>(copula::kMaxSampleRows))) {
    return Status::InvalidArgument(
        "synthetic row count exceeds the longest column a table can hold");
  }
  const auto out_rows = static_cast<std::size_t>(std::llround(scaled_rows));

  obs::Log(obs::LogLevel::kInfo, "synthesize.start")
      .Field("rows", table.num_rows())
      .Field("columns", m)
      .Field("out_rows", out_rows)
      .Field("epsilon", options.epsilon)
      .Field("threads", options.num_threads);

  SynthesisResult result;
  result.budget = dp::BudgetAccountant(options.epsilon, "dpcopula");
  DpCopulaModel& model = result.model;
  model.schema = table.schema();
  model.fitted_rows = out_rows;

  // A single attribute has no dependence structure: the entire budget goes
  // to its margin. Otherwise split per the ratio k.
  double epsilon1 = options.epsilon;
  double epsilon2 = 0.0;
  // Tables too small for any correlation estimate also take the
  // margins-only path with an identity copula.
  const bool estimate_correlation = (m >= 2) && (table.num_rows() >= 2);
  if (estimate_correlation) {
    obs::Span split_span("budget_split");
    DPC_ASSIGN_OR_RETURN(BudgetSplit split, ComputeBudgetSplit(options));
    epsilon1 = split.epsilon1;
    epsilon2 = split.epsilon2;
    obs::Log(obs::LogLevel::kDebug, "synthesize.budget_split")
        .Field("epsilon1", epsilon1)
        .Field("epsilon2", epsilon2)
        .Field("k", options.budget_ratio_k);
  }

  // Step 1: DP marginal histograms, epsilon1 / m each (Theorem 3.1 over the
  // m sequential releases on the same records). The count-query sensitivity
  // every publisher calibrates to is 1 (add/remove one record changes one
  // bin by 1).
  const double eps_per_margin = epsilon1 / static_cast<double>(m);
  model.marginal_counts.reserve(m);
  {
    obs::Span margins_span("margins");
    for (std::size_t j = 0; j < m; ++j) {
      obs::Span stage("margin_publish", kMarginPublishSeconds);
      DPC_RETURN_NOT_OK(result.budget.Charge(
          eps_per_margin, "margin:" + table.schema().attribute(j).name,
          /*sensitivity=*/1.0));
      DPC_ASSIGN_OR_RETURN(hist::Histogram h,
                           hist::Histogram::FromColumn(table, j));
      DPC_ASSIGN_OR_RETURN(
          std::vector<double> noisy,
          marginals::PublishMarginal(options.marginal_method, h.data(),
                                     eps_per_margin, rng));
      // Consistency post-processing (no privacy cost): project onto the
      // simplex matching the noisy total, rather than clamping negatives —
      // clamping alone would inject phantom mass proportional to the domain
      // size, which dominates at small epsilon.
      model.marginal_counts.push_back(marginals::ProjectToNoisyTotal(noisy));
    }
  }

  // Optional family-selection budget (future-work extension): carve a share
  // of epsilon2 for the private dof / family votes before estimating the
  // correlation matrix. Only meaningful when a vote will actually run.
  constexpr std::size_t kFamilyVotePartitions = 10;
  const bool family_vote_possible =
      estimate_correlation &&
      table.num_rows() >= kFamilyVotePartitions * 4;
  const bool wants_family_vote =
      options.family == CopulaFamily::kAutoAic ||
      (options.family == CopulaFamily::kStudentT && options.t_dof <= 0.0);
  double eps_family = 0.0;
  if (family_vote_possible && wants_family_vote) {
    eps_family = epsilon2 * kFamilyEpsilonFraction;
    epsilon2 -= eps_family;
  }

  // Step 2: the DP dependence model with epsilon2. kEmpirical replaces the
  // parametric correlation estimation entirely: epsilon2 buys a DP
  // checkerboard copula over the pseudo-observations, from which step 3
  // samples uniforms directly (cell-histogram sensitivity 1). Otherwise
  // each estimator branch charges its budget *before* running the
  // mechanism, so a failure after the charge can never be refunded; a
  // failed estimate either fails the run closed (nothing released) or —
  // with allow_degraded_correlation — degrades to an identity correlation
  // over the already-published margins.
  if (options.family == CopulaFamily::kEmpirical && estimate_correlation) {
    DPC_RETURN_NOT_OK(result.budget.Charge(epsilon2, "copula:empirical",
                                           /*sensitivity=*/1.0));
    obs::Span empirical_span("correlation");
    DPC_ASSIGN_OR_RETURN(auto pseudo, copula::PseudoObservations(table));
    DPC_ASSIGN_OR_RETURN(
        copula::EmpiricalCopula grid,
        copula::EmpiricalCopula::FitDp(pseudo, kEmpiricalGrid, epsilon2, rng));
    model.grid =
        std::make_shared<const copula::EmpiricalCopula>(std::move(grid));
    model.correlation = linalg::Matrix::Identity(m);
    model.family = CopulaFamily::kEmpirical;
  } else if (estimate_correlation) {
    static obs::Counter* const degraded_counter =
        obs::MetricsRegistry::Global().GetCounter(
            "core.degraded_correlations");
    obs::Span correlation_span("correlation");
    Status est_status = Status::OK();
    if (DPC_FAILPOINT("core.correlation_estimate")) {
      DPC_RETURN_NOT_OK(
          result.budget.Charge(epsilon2, "correlation:injected"));
      est_status = failpoint::InjectedFault("core.correlation_estimate");
    } else {
      switch (options.estimator) {
        case CorrelationEstimator::kKendall: {
          DPC_RETURN_NOT_OK(
              result.budget.Charge(epsilon2, "correlation:kendall"));
          copula::KendallEstimatorOptions kendall_opts = options.kendall;
          kendall_opts.num_threads = options.num_threads;
          Result<copula::KendallEstimate> est =
              copula::EstimateKendallCorrelation(table, epsilon2, rng,
                                                 kendall_opts);
          if (!est.ok()) {
            est_status = est.status();
            break;
          }
          // Lemma 4.1: each tau's noise is calibrated to 4/(n_used + 1),
          // only known once the estimator picked its subsample.
          result.budget.AnnotateLastChargeSensitivity(
              4.0 / (static_cast<double>(est->rows_used) + 1.0));
          model.correlation = std::move(est->correlation);
          result.kendall_rows_used = est->rows_used;
          result.correlation_repaired = est->repaired;
          break;
        }
        case CorrelationEstimator::kMle: {
          DPC_RETURN_NOT_OK(
              result.budget.Charge(epsilon2, "correlation:mle"));
          copula::MleEstimatorOptions mle_opts = options.mle;
          mle_opts.num_threads = options.num_threads;
          Result<copula::MleEstimate> est =
              copula::EstimateMleCorrelation(table, epsilon2, rng, mle_opts);
          if (!est.ok()) {
            est_status = est.status();
            break;
          }
          // Algorithm 2: averaging the l_s surviving disjoint partitions
          // leaves each coefficient with sensitivity Lambda / l_s = 2 / l_s
          // (l_s == l when no partition fit failed).
          result.budget.AnnotateLastChargeSensitivity(
              2.0 / static_cast<double>(est->num_partitions -
                                        est->failed_partitions));
          model.correlation = std::move(est->correlation);
          result.mle_partitions = est->num_partitions;
          result.partitions_failed = est->failed_partitions;
          result.correlation_repaired = est->repaired;
          break;
        }
      }
    }
    if (!est_status.ok()) {
      if (!options.allow_degraded_correlation) return est_status;
      degraded_counter->Increment();
      obs::Log(obs::LogLevel::kWarn, "synthesize.correlation_degraded")
          .Field("columns", m);
      model.correlation = linalg::Matrix::Identity(m);
      result.correlation_degraded = true;
    }
  } else {
    model.correlation = linalg::Matrix::Identity(m);
  }

  // Resolve the copula family (extension beyond the paper's Gaussian
  // default; falls back to Gaussian when the data cannot support a private
  // vote). The vote mechanisms score partition counts, sensitivity 1.
  if (estimate_correlation && (options.family == CopulaFamily::kStudentT ||
                               options.family == CopulaFamily::kAutoAic)) {
    obs::Span family_span("family_selection");
    if (options.family == CopulaFamily::kStudentT && options.t_dof > 0.0) {
      model.family = CopulaFamily::kStudentT;
      model.t_dof = options.t_dof;
    } else if (family_vote_possible) {
      // kAutoAic splits eps_family between the family vote and the dof
      // vote; both count over one likelihood table, which draws nothing.
      const bool auto_aic = options.family == CopulaFamily::kAutoAic;
      const double eps_vote = auto_aic ? eps_family / 2.0 : eps_family;
      DPC_ASSIGN_OR_RETURN(auto pseudo, copula::PseudoObservations(table));
      DPC_RETURN_NOT_OK(result.budget.Charge(
          eps_vote, auto_aic ? "family:aic-vote" : "family:t-dof",
          /*sensitivity=*/1.0));
      DPC_ASSIGN_OR_RETURN(
          const copula::FamilyLikelihoods likelihoods,
          copula::FamilyLikelihoodTable(pseudo, model.correlation,
                                        kFamilyVotePartitions));
      bool t_wins = true;
      if (auto_aic) {
        DPC_ASSIGN_OR_RETURN(
            const std::size_t pick,
            dp::ExponentialMechanism(rng, likelihoods.FamilyVotes(),
                                     eps_vote, /*sensitivity=*/1.0));
        t_wins = pick == 1;
        DPC_RETURN_NOT_OK(result.budget.Charge(eps_vote, "family:t-dof",
                                               /*sensitivity=*/1.0));
      }
      if (t_wins) {
        DPC_ASSIGN_OR_RETURN(
            const std::size_t pick,
            dp::ExponentialMechanism(rng, likelihoods.DofVotes(), eps_vote,
                                     /*sensitivity=*/1.0));
        model.t_dof = copula::kTDofGrid[pick];
        model.family = CopulaFamily::kStudentT;
      }
    }
  }

  DPC_RETURN_NOT_OK(VerifyBudgetConsumed(result.budget, options.epsilon));
  return result;
}

Result<SynthesisResult> Synthesize(const data::Table& table,
                                   const DpCopulaOptions& options, Rng* rng) {
  static obs::Counter* const runs_counter =
      obs::MetricsRegistry::Global().GetCounter("core.synthesize_runs");
  static obs::Histogram* const run_seconds =
      obs::MetricsRegistry::Global().GetHistogram("core.synthesize_seconds");
  obs::Span run_span("synthesize", run_seconds);
  runs_counter->Increment();

  DPC_ASSIGN_OR_RETURN(SynthesisResult result, Fit(table, options, rng));
  // Step 3: sample synthetic data (Algorithm 3) — pure post-processing of
  // the model, drawn from the same RNG right after the fit.
  {
    obs::Span sampling_span("sampling");
    DPC_ASSIGN_OR_RETURN(const copula::SamplingPlan plan,
                         BuildSamplingPlan(result.model));
    DPC_ASSIGN_OR_RETURN(
        result.synthetic,
        plan.Sample(result.model.fitted_rows, rng, options.num_threads));
  }
  obs::Log(obs::LogLevel::kInfo, "synthesize.done")
      .Field("out_rows", result.synthetic.num_rows())
      .Field("budget_spent", result.budget.spent())
      .Field("repaired", result.correlation_repaired);
  return result;
}

}  // namespace dpcopula::core
