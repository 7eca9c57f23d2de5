#ifndef DPCOPULA_CORE_DPCOPULA_H_
#define DPCOPULA_CORE_DPCOPULA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "copula/empirical_copula.h"
#include "copula/kendall_estimator.h"
#include "copula/mle_estimator.h"
#include "copula/sampler.h"
#include "data/table.h"
#include "dp/budget.h"
#include "linalg/matrix.h"
#include "marginals/marginal_method.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::core {

/// Which DP correlation-matrix estimator drives the Gaussian copula.
enum class CorrelationEstimator {
  kKendall,  // Algorithm 4/5: noisy Kendall's tau (default; paper §5.2 shows
             // it dominates MLE in accuracy).
  kMle,      // Algorithms 1/2: sample-and-aggregate MLE.
};

/// Which elliptical copula family models the dependence. The paper's core
/// method is the Gaussian copula; the t copula and the private AIC-based
/// choice between the two implement its §6 future-work extension. Both
/// non-Gaussian options work with either correlation estimator because
/// Kendall's tau -> sin transform is family-agnostic for elliptical
/// copulas.
enum class CopulaFamily {
  kGaussian,   // Paper default.
  kStudentT,   // Fixed or privately estimated dof (see t_dof).
  kAutoAic,    // Private per-partition AIC vote between Gaussian and t.
  kEmpirical,  // Non-parametric checkerboard copula (low m only: the grid
               // has kEmpiricalGrid^m cells). Replaces the correlation
               // matrix entirely; epsilon2 buys the DP copula grid.
};

/// Cells per axis of the kEmpirical checkerboard grid.
inline constexpr std::int64_t kEmpiricalGrid = 8;

/// Share of epsilon2 spent on the private dof / family vote when the family
/// is kStudentT with t_dof == 0 or kAutoAic.
inline constexpr double kFamilyEpsilonFraction = 0.2;

/// Options for one DPCopula synthesis run. Defaults follow the paper's
/// Table 3.
struct DpCopulaOptions {
  /// Total privacy budget epsilon. Split as epsilon1 = epsilon * k / (k+1)
  /// for the margins and epsilon2 = epsilon / (k+1) for the correlations.
  double epsilon = 1.0;

  /// The ratio k = epsilon1 / epsilon2 (Table 3 default 8; Fig. 5 shows the
  /// method is insensitive to k >= 1).
  double budget_ratio_k = 8.0;

  CorrelationEstimator estimator = CorrelationEstimator::kKendall;

  /// DP 1-d histogram publisher for the margins (paper uses EFPA).
  marginals::MarginalMethod marginal_method =
      marginals::MarginalMethod::kEfpa;

  copula::KendallEstimatorOptions kendall;
  copula::MleEstimatorOptions mle;

  /// Copula family (paper default Gaussian; see CopulaFamily).
  CopulaFamily family = CopulaFamily::kGaussian;

  /// Degrees of freedom for kStudentT. 0 estimates the dof privately
  /// (sample-and-aggregate vote), spending kFamilyEpsilonFraction of
  /// epsilon2.
  double t_dof = 0.0;

  /// Number of synthetic rows to emit; 0 means "same as the input". (The
  /// hybrid algorithm passes each partition's noisy count here, so the
  /// partition's model records the row count of its output block.)
  std::size_t num_synthetic_rows = 0;

  /// Worker threads for the whole synthesis pipeline (shared ThreadPool):
  /// Algorithm 3 row sampling plus the correlation estimator (overrides the
  /// `num_threads` inside `kendall` / `mle` when running via Fit).
  /// Every parallel path shards work and RNG streams deterministically, so
  /// output is bit-identical for any value. 0 = hardware concurrency,
  /// <= 1 = sequential.
  int num_threads = 1;

  /// Emits round(oversample_factor * rows) synthetic rows instead. Because
  /// sampling is post-processing, oversampling is privacy-free and shrinks
  /// the binomial sampling noise of range-count answers; consumers must
  /// scale counts back by 1/oversample_factor (see
  /// baselines::ScaledTableEstimator).
  double oversample_factor = 1.0;

  /// Degradation policy: when the correlation estimator fails (after its
  /// epsilon2 charge — budgets are charged up front and never refunded),
  /// fall back to an identity correlation and synthesize from the
  /// already-published DP margins alone instead of failing the run. The
  /// release is still epsilon-DP (independent margins are a strictly less
  /// informative post-processing of the same charges); the accuracy
  /// downgrade is recorded in SynthesisResult::correlation_degraded. Off by
  /// default: a standalone run should fail loudly. The hybrid synthesizer
  /// turns this on per partition.
  bool allow_degraded_correlation = false;
};

/// A fitted DPCopula model: everything needed to sample synthetic data
/// without touching the original records again. Because every field is
/// itself a differentially private release, the model can be published,
/// stored and re-sampled arbitrarily often at no additional privacy cost —
/// often more useful to a consumer than a single synthetic table.
struct DpCopulaModel {
  data::Schema schema;
  /// Post-processed noisy marginal counts, one vector per attribute.
  std::vector<std::vector<double>> marginal_counts;
  /// DP correlation matrix (valid: unit diagonal, positive definite); the
  /// identity for kEmpirical.
  linalg::Matrix correlation;
  /// The fitted family: kGaussian, kStudentT or kEmpirical, never kAutoAic.
  CopulaFamily family = CopulaFamily::kGaussian;
  double t_dof = 0.0;  // Only meaningful for kStudentT.
  /// The DP checkerboard grid of a kEmpirical fit. Shared with every plan
  /// built from the model, since a grid can reach 2^26 cells. Model files
  /// cannot hold it.
  std::shared_ptr<const copula::EmpiricalCopula> grid;
  /// Row count of the fitting release: the input rows (or
  /// num_synthetic_rows when set) times oversample_factor, rounded. The
  /// default sample size.
  std::size_t fitted_rows = 0;
};

/// Everything a synthesis run releases, plus diagnostics.
struct SynthesisResult {
  data::Table synthetic;  // The DP synthetic dataset D~ (empty after Fit).
  DpCopulaModel model;    // The DP model D~ was sampled from.
  dp::BudgetAccountant budget{0.0};  // Charge log (total == options.epsilon).
  // Estimator diagnostics (whichever was used is populated).
  std::int64_t kendall_rows_used = 0;
  std::int64_t mle_partitions = 0;
  bool correlation_repaired = false;
  // Degradation diagnostics: MLE partition fits that failed and were
  // excluded from the average, and whether the correlation estimate itself
  // was abandoned for the identity fallback (allow_degraded_correlation).
  std::int64_t partitions_failed = 0;
  bool correlation_degraded = false;
};

/// Fits the DP model (Algorithm 1 or 4 depending on the estimator): DP
/// marginal histograms with epsilon1/m each, then the DP correlation matrix
/// (or empirical grid) and the family vote with epsilon2. Consumes exactly
/// `options.epsilon`, audited before returning; `synthetic` stays empty.
/// A row count no table can hold is InvalidArgument before any charge.
///
/// Degenerate inputs are handled as the hybrid algorithm requires: a single
/// column spends the full budget on its margin, and tables with fewer than
/// two rows fall back to an identity correlation (their margins still go
/// through the DP publisher, so the guarantee is unchanged).
Result<SynthesisResult> Fit(const data::Table& table,
                            const DpCopulaOptions& options, Rng* rng);

/// Runs DPCopula end to end: Fit, then Algorithm 3 (pure post-processing)
/// samples the model's fitted_rows from the same RNG.
Result<SynthesisResult> Synthesize(const data::Table& table,
                                   const DpCopulaOptions& options, Rng* rng);

/// One CDF per model margin, in schema order.
Result<std::vector<stats::EmpiricalCdf>> ModelMarginalCdfs(
    const DpCopulaModel& model);

/// Compiles a fitted model into its sampling plan — the one place that
/// maps a CopulaFamily onto the plan factories (Synthesize, SampleFromModel,
/// the serving registry and streaming all build plans here). kEmpirical
/// needs its grid, which a loaded model lacks, and kAutoAic always resolves
/// to a concrete family before sampling, so both are InvalidArgument
/// otherwise.
Result<copula::SamplingPlan> BuildSamplingPlan(const DpCopulaModel& model);

/// The (epsilon1, epsilon2) split implied by `options`.
struct BudgetSplit {
  double epsilon1;
  double epsilon2;
};
Result<BudgetSplit> ComputeBudgetSplit(const DpCopulaOptions& options);

}  // namespace dpcopula::core

#endif  // DPCOPULA_CORE_DPCOPULA_H_
