#ifndef DPCOPULA_CORE_HYBRID_H_
#define DPCOPULA_CORE_HYBRID_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/table.h"
#include "dp/budget.h"

namespace dpcopula::core {

/// Attributes with domain_size < this threshold are the small-domain
/// partitioning attributes of Algorithm 6 (the paper uses 10).
inline constexpr std::int64_t kSmallDomainThreshold = 10;

/// Fraction of the total budget spent on the noisy partition counts
/// (epsilon1 of Algorithm 6). The counts are over disjoint partitions, so
/// parallel composition applies.
inline constexpr double kPartitionCountFraction = 0.1;

/// Hard cap on the number of partitions (product of small domains);
/// exceeding it fails loudly instead of exploding.
inline constexpr std::int64_t kMaxPartitions = 4096;

/// Options for DPCopula-Hybrid (Algorithm 6), which handles datasets mixing
/// small-domain attributes (domain < kSmallDomainThreshold, e.g. gender)
/// with large-domain ones: partition on the small-domain attributes,
/// release noisy partition counts, run DPCopula inside each partition.
///
/// Degradation policy: when a partition's inner copula fit fails (its
/// correlation estimate is degenerate — e.g. the partition is too small or
/// ill-conditioned), that partition is synthesized from its DP margins
/// alone (identity correlation) instead of failing the whole hybrid run.
/// The budget story is unchanged: every partition's charges happen up front
/// and are never refunded, and independent margins are post-processing of
/// the same release. Degraded partitions are counted in
/// HybridResult::degraded_partitions: one bad partition out of hundreds
/// should cost accuracy there, not the run.
struct HybridOptions {
  /// Options for the per-partition DPCopula fits. `epsilon`,
  /// `num_synthetic_rows`, `num_threads` and `allow_degraded_correlation`
  /// inside are ignored — the hybrid supplies
  /// (1 - kPartitionCountFraction) * epsilon, the noisy counts, its own
  /// thread count and the degradation policy above.
  /// `oversample_factor` applies per partition: a partition with noisy
  /// count n emits llround(n * oversample_factor) rows, every column of
  /// them, in the contingency case (no large-domain attribute) too.
  DpCopulaOptions inner;

  /// Total privacy budget of the hybrid release.
  double epsilon = 1.0;

  /// Worker threads (shared ThreadPool) for the whole release: the
  /// partitions run on the pool, and each partition's fit and sampling
  /// loops fan out to idle workers through the same queue. Each
  /// partition's draws come from an RNG pre-split in partition order, and
  /// each partition samples straight into its own block of the output,
  /// blocks in that same order, so the release is bit-identical for any
  /// thread count. 0 = hardware concurrency, <= 1 = sequential.
  int num_threads = 1;
};

/// Diagnostics of one hybrid run.
struct HybridResult {
  data::Table synthetic;
  std::int64_t num_partitions = 0;
  std::int64_t num_skipped_partitions = 0;  // Noisy count <= 0.
  /// Partitions whose copula fit failed and were synthesized from margins
  /// alone (see HybridOptions).
  std::int64_t degraded_partitions = 0;
  double epsilon_counts = 0.0;
  double epsilon_copula = 0.0;
  /// Top-level charge log (total == options.epsilon). Partitions are
  /// disjoint, so both the noisy counts and the per-partition copula runs
  /// appear as single parallel-composition charges; when the run degrades
  /// to plain DPCopula this is that run's full sequential log instead.
  dp::BudgetAccountant budget{0.0};
};

/// Runs Algorithm 6: each partition runs Fit, BuildSamplingPlan and
/// SampleInto on its own stream. If the table has no small-domain
/// attributes this degrades to plain DPCopula on the whole table (with the
/// full budget); if it has only small-domain attributes it degrades to a
/// noisy contingency table release. Output columns follow the input schema
/// order; output rows come in one block per partition, in partition order
/// (the last small-domain attribute varies fastest). A small-domain value
/// outside its attribute's domain is OutOfRange before any budget is
/// charged or the RNG is drawn.
Result<HybridResult> SynthesizeHybrid(const data::Table& table,
                                      const HybridOptions& options, Rng* rng);

}  // namespace dpcopula::core

#endif  // DPCOPULA_CORE_HYBRID_H_
