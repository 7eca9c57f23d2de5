#ifndef DPCOPULA_CORE_STREAMING_H_
#define DPCOPULA_CORE_STREAMING_H_

#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/model_io.h"
#include "data/table.h"

namespace dpcopula::core {

/// Streaming DPCopula — the paper's second future-work direction
/// ("data synthesization mechanisms for dynamically evolving datasets").
///
/// Records arrive in batches of *new* tuples (each record belongs to
/// exactly one batch). Because batches are disjoint, parallel composition
/// (Theorem 3.2) lets every batch be fitted with the full per-batch budget
/// `epsilon_per_batch`: the released stream of batch models is
/// epsilon_per_batch-DP overall with respect to add/remove of one record.
///
/// The accumulated model is the count-weighted merge of the per-batch DP
/// models: margins add (noisy counts are additive over disjoint data),
/// correlations average with noisy-count weights followed by the usual
/// eigenvalue repair. `CurrentModel` can be sampled at any time via
/// SampleFromModel.
class StreamingSynthesizer {
 public:
  struct Options {
    /// Budget spent on each arriving batch (full, thanks to parallel
    /// composition across disjoint batches).
    double epsilon_per_batch = 1.0;
    /// Options forwarded to the per-batch DPCopula fit (epsilon and row
    /// counts inside are overridden).
    DpCopulaOptions fit;
    /// Exponential decay applied to the accumulated model before each
    /// merge: weight_old *= decay. 1.0 = all history equal; < 1 ages out
    /// old batches, tracking drifting distributions.
    double decay = 1.0;
  };

  /// The synthesizer handles tables with this schema only.
  StreamingSynthesizer(data::Schema schema, Options options);

  /// Validates construction parameters.
  Status Validate() const;

  /// Ingests one batch of new records; fits a DP model on the batch (Fit,
  /// which leaves `rng` where the fit does: nothing is sampled) and merges
  /// it into the accumulated model.
  Status Ingest(const data::Table& batch, Rng* rng);

  /// Number of batches merged so far.
  std::size_t num_batches() const { return num_batches_; }

  /// Accumulated weight (decayed noisy record count) in the model.
  double accumulated_weight() const { return weight_; }

  /// The current publishable model (error if nothing was ingested).
  Result<DpCopulaModel> CurrentModel() const;

  /// Convenience: samples `num_rows` (0 = accumulated noisy count) from the
  /// current model.
  Result<data::Table> Synthesize(std::size_t num_rows, Rng* rng) const;

  /// Persists the accumulated state (merged margins/correlation, weight,
  /// batch count) so ingestion can resume after a process restart. The
  /// saved artifact is DP (it is exactly the publishable model plus two
  /// counters derived from noisy quantities).
  Status SaveState(const std::string& path) const;

  /// Restores a synthesizer from SaveState output; `options` supplies the
  /// go-forward ingestion parameters (budget, decay). The file must hold a
  /// model body, then exactly `streaming_weight` (finite, >= 0) and
  /// `streaming_batches` (an integer >= 1), and nothing after them;
  /// anything else is IOError.
  static Result<StreamingSynthesizer> RestoreState(const std::string& path,
                                                   Options options);

 private:
  Options options_;
  std::size_t num_batches_ = 0;
  double weight_ = 0.0;  // Decayed sum of noisy batch sizes.
  // The schema, the summed margins and the weighted mean correlation
  // (pre-repair); the margins and correlation are empty before the first
  // batch.
  DpCopulaModel merged_;
};

}  // namespace dpcopula::core

#endif  // DPCOPULA_CORE_STREAMING_H_
