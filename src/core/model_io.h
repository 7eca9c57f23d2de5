#ifndef DPCOPULA_CORE_MODEL_IO_H_
#define DPCOPULA_CORE_MODEL_IO_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/schema.h"
#include "data/table.h"
#include "linalg/matrix.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::core {

/// A fitted DPCopula model: everything needed to sample synthetic data
/// without touching the original records again. Because every field is
/// itself a differentially private release, the model can be published,
/// stored and re-sampled arbitrarily often at no additional privacy cost —
/// often more useful to a consumer than a single synthetic table.
struct DpCopulaModel {
  data::Schema schema;
  /// Post-processed noisy marginal counts, one vector per attribute.
  std::vector<std::vector<double>> marginal_counts;
  /// DP correlation matrix (valid: unit diagonal, positive definite).
  linalg::Matrix correlation;
  CopulaFamily family = CopulaFamily::kGaussian;
  double t_dof = 0.0;  // Only meaningful for kStudentT.
  /// Row count of the dataset the model was fitted on (itself released via
  /// the synthesis), used as the default sample size.
  std::size_t fitted_rows = 0;
};

/// Extracts the publishable model from a synthesis result.
DpCopulaModel ModelFromSynthesis(const data::Schema& schema,
                                 const SynthesisResult& result);

/// One CDF per model margin — with BuildSamplingPlan, which checks them
/// against the schema, what sampling needs from a model.
Result<std::vector<stats::EmpiricalCdf>> ModelMarginalCdfs(
    const DpCopulaModel& model);

/// Draws `num_rows` synthetic rows from a model (0 = model's fitted_rows).
/// Pure post-processing. Builds a fresh plan per call; callers that sample
/// one model repeatedly (the serving registry) keep the plan instead.
Result<data::Table> SampleFromModel(const DpCopulaModel& model,
                                    std::size_t num_rows, Rng* rng);

/// Writes the self-describing text format ("DPCOPULA-MODEL v1" header, one
/// section per field) to an already-open stream. Used by SaveModel and by
/// StreamingSynthesizer::SaveState, which appends its counters after the
/// model body inside the same atomic write. InvalidArgument, before
/// writing anything, for a family the format cannot hold (kEmpirical,
/// kAutoAic).
Status SerializeModel(const DpCopulaModel& model, std::ostream& out);

/// Serializes the model to a file. Crash-safe: the content is staged in
/// `<path>.tmp`, fsync'ed, and atomically renamed onto `path`, so an
/// interrupted save never leaves a truncated model. Returns IOError on
/// filesystem failure.
Status SaveModel(const DpCopulaModel& model, const std::string& path);

struct LoadModelOptions {
  /// Accept (and ignore) content after the correlation block. Only the
  /// streaming-state loader sets this: StreamingSynthesizer::SaveState
  /// appends its counters after the model body inside the same atomic
  /// write. Plain model files must end at the correlation block — trailing
  /// bytes mean corruption (or a truncated concatenation) and fail closed.
  bool allow_trailing = false;
};

/// Loads and validates a model written by SaveModel. Fails closed with a
/// data-independent IOError on any malformed, non-finite, or trailing
/// content, so a corrupted model file is rejected at load time instead of
/// producing NaN samples downstream.
Result<DpCopulaModel> LoadModel(const std::string& path,
                                const LoadModelOptions& options = {});

}  // namespace dpcopula::core

#endif  // DPCOPULA_CORE_MODEL_IO_H_
