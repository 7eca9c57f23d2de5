#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/parse_number.h"
#include "linalg/psd_repair.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace dpcopula::core {

StreamingSynthesizer::StreamingSynthesizer(data::Schema schema,
                                           Options options)
    : options_(std::move(options)) {
  merged_.schema = std::move(schema);
}

Status StreamingSynthesizer::Validate() const {
  if (merged_.schema.num_attributes() == 0) {
    return Status::InvalidArgument("streaming: empty schema");
  }
  if (!(options_.epsilon_per_batch > 0.0)) {
    return Status::InvalidArgument("streaming: epsilon_per_batch must be > 0");
  }
  if (!(options_.decay > 0.0 && options_.decay <= 1.0)) {
    return Status::InvalidArgument("streaming: decay must be in (0, 1]");
  }
  return Status::OK();
}

Status StreamingSynthesizer::Ingest(const data::Table& batch, Rng* rng) {
  static obs::Counter* const batches_rejected =
      obs::MetricsRegistry::Global().GetCounter("streaming.batches_rejected");
  DPC_RETURN_NOT_OK(Validate());
  if (!(batch.schema() == merged_.schema)) {
    return Status::InvalidArgument("streaming: batch schema mismatch");
  }
  if (batch.num_rows() == 0) {
    return Status::InvalidArgument("streaming: empty batch");
  }

  // Fit a DP model on the (disjoint) batch with the full per-batch budget.
  DpCopulaOptions fit = options_.fit;
  fit.epsilon = options_.epsilon_per_batch;
  fit.num_synthetic_rows = 0;
  fit.oversample_factor = 1.0;
  Result<SynthesisResult> result = Fit(batch, fit, rng);
  if (!result.ok()) {
    // Poisoned batch: the fit failed, the accumulated model is untouched
    // (nothing below has run) and ingestion can continue with later batches.
    batches_rejected->Increment();
    obs::Log(obs::LogLevel::kWarn, "streaming.batch_rejected")
        .Field("batch", num_batches_)
        .Field("reason", "fit_failed");
    return result.status();
  }

  const DpCopulaModel& fitted = result->model;
  // Batch weight: the noisy marginal mass is itself a DP estimate of the
  // batch size (post-processing of already-released counts).
  double batch_weight = 0.0;
  for (double v : fitted.marginal_counts[0]) {
    batch_weight += std::max(0.0, v);
  }
  batch_weight = std::max(1.0, batch_weight);

  // Stage the post-merge state into a copy; the member is committed only
  // once every step has succeeded, so a failure mid-merge (or the injected
  // fault below) rejects the batch without corrupting the accumulated model.
  const std::size_t m = merged_.schema.num_attributes();
  DpCopulaModel staged = merged_;
  if (num_batches_ == 0) {  // Merge into zeros of the batch model's shape.
    staged.marginal_counts = fitted.marginal_counts;
    for (auto& margin : staged.marginal_counts) {
      margin.assign(margin.size(), 0.0);
    }
    staged.correlation = linalg::Matrix(m, m);
  }

  // Age out history, then merge.
  const double old_weight = weight_ * options_.decay;
  for (auto& margin : staged.marginal_counts) {
    for (double& v : margin) v *= options_.decay;
  }
  // Margins are additive over disjoint batches.
  for (std::size_t j = 0; j < m; ++j) {
    const auto& batch_margin = fitted.marginal_counts[j];
    for (std::size_t v = 0; v < batch_margin.size(); ++v) {
      staged.marginal_counts[j][v] += std::max(0.0, batch_margin[v]);
    }
  }
  // Correlations: weighted mean of per-batch DP estimates.
  const double total_weight = old_weight + batch_weight;
  staged.correlation = staged.correlation.Scaled(old_weight / total_weight) +
                       fitted.correlation.Scaled(batch_weight / total_weight);

  if (DPC_FAILPOINT_AT("streaming.ingest.merge", num_batches_)) {
    batches_rejected->Increment();
    obs::Log(obs::LogLevel::kWarn, "streaming.batch_rejected")
        .Field("batch", num_batches_)
        .Field("reason", "injected");
    return failpoint::InjectedFault("streaming.ingest.merge");
  }

  // Commit.
  merged_ = std::move(staged);
  weight_ = total_weight;
  ++num_batches_;
  return Status::OK();
}

Result<DpCopulaModel> StreamingSynthesizer::CurrentModel() const {
  if (num_batches_ == 0) {
    return Status::FailedPrecondition("streaming: no batches ingested");
  }
  DpCopulaModel model = merged_;
  // The weighted mean of valid correlation matrices can drift off the
  // PD manifold after decay; repair to a valid correlation matrix.
  DPC_ASSIGN_OR_RETURN(model.correlation,
                       linalg::EnsureCorrelationMatrix(merged_.correlation));
  // The accumulated weight is unbounded (it grows with every batch under
  // decay 1.0, and a restored state may carry an arbitrarily large value);
  // llround on a double past the long long range is undefined behavior, so
  // clamp before rounding.
  const double weight = std::max(1.0, weight_);
  constexpr double kMaxRows =
      static_cast<double>(std::numeric_limits<long long>::max());
  model.fitted_rows =
      weight >= kMaxRows
          ? static_cast<std::size_t>(std::numeric_limits<long long>::max())
          : static_cast<std::size_t>(std::llround(weight));
  return model;
}

Result<data::Table> StreamingSynthesizer::Synthesize(std::size_t num_rows,
                                                     Rng* rng) const {
  DPC_ASSIGN_OR_RETURN(DpCopulaModel model, CurrentModel());
  return SampleFromModel(model, num_rows, rng);
}

Status StreamingSynthesizer::SaveState(const std::string& path) const {
  if (num_batches_ == 0) {
    return Status::FailedPrecondition("streaming: nothing to save");
  }
  // Reuse the model format; the pre-repair merged correlation is stored via
  // the repaired model (re-merging after restore keeps averaging with the
  // repaired matrix, an acceptable projection).
  Result<DpCopulaModel> model = CurrentModel();
  DPC_RETURN_NOT_OK(model.status());
  // One atomic write covers the model body and the appended streaming
  // counters: a crash mid-save can never leave a model file without its
  // counters (which RestoreState would reject as corrupt).
  return WriteFileAtomic(path, [&](std::ostream& out) -> Status {
    DPC_RETURN_NOT_OK(SerializeModel(*model, out));
    out << "streaming_weight " << weight_ << "\n";
    out << "streaming_batches " << num_batches_ << "\n";
    if (!out) return Status::IOError("streaming state stream failed");
    return Status::OK();
  });
}

Result<StreamingSynthesizer> StreamingSynthesizer::RestoreState(
    const std::string& path, Options options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  DPC_ASSIGN_OR_RETURN(DpCopulaModel model, ParseModel(in));
  // Exactly the two counters SaveState appends, in its order, and nothing
  // after them. NaN fails every `< 0.0` comparison, so the weight must be
  // required finite explicitly; a batch count must be a plain integer, or
  // "-1" would wrap to 2^64 - 1.
  std::string weight_key, weight_text, batches_key, batches_text, trailing;
  double weight = 0.0;
  std::uint64_t batches = 0;
  if (!(in >> weight_key >> weight_text >> batches_key >> batches_text) ||
      weight_key != "streaming_weight" || !ParseDouble(weight_text, &weight) ||
      !std::isfinite(weight) || weight < 0.0 ||
      batches_key != "streaming_batches" ||
      !ParseUint64(batches_text, &batches) || batches == 0 ||
      (in >> trailing)) {
    return Status::IOError("bad streaming counters in " + path);
  }
  StreamingSynthesizer s(model.schema, std::move(options));
  DPC_RETURN_NOT_OK(s.Validate());
  s.weight_ = weight;
  s.num_batches_ = batches;
  s.merged_.marginal_counts = std::move(model.marginal_counts);
  s.merged_.correlation = std::move(model.correlation);
  return s;
}

}  // namespace dpcopula::core
