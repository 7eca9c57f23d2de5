#ifndef DPCOPULA_COPULA_MLE_ESTIMATOR_H_
#define DPCOPULA_COPULA_MLE_ESTIMATOR_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/matrix.h"

namespace dpcopula::copula {

/// Lower bound on records per partition when the MLE estimator picks l
/// itself. A Gaussian copula correlation estimate needs at least a handful
/// of rows to be informative.
inline constexpr std::int64_t kMleMinPartitionRows = 10;

/// Options for the DP MLE correlation estimator (Algorithm 2 — Dwork &
/// Smith sample-and-aggregate).
struct MleEstimatorOptions {
  /// Number of disjoint horizontal partitions l. 0 selects the paper's rule
  /// l = ceil(C(m,2) / (0.025 * epsilon2)), clamped so each partition keeps
  /// at least kMleMinPartitionRows records.
  std::int64_t num_partitions = 0;

  /// Worker threads (shared ThreadPool) for the l disjoint partition fits.
  /// The fits consume no randomness and are averaged in partition order, so
  /// the released matrix is bit-identical for any thread count. 0 =
  /// hardware concurrency, <= 1 = sequential.
  int num_threads = 1;

  /// Degradation policy: how many of the l per-partition fits may fail
  /// before the whole estimate fails closed. Surviving partitions are
  /// averaged; each coefficient's sensitivity grows to Lambda / l_s for l_s
  /// survivors, so the Laplace scale is enlarged accordingly and the
  /// released matrix stays epsilon2-DP. The budget attributed to failed
  /// partitions is still charged — never refunded. 0 (default) keeps the
  /// strict behavior: any partition failure fails the estimate.
  std::int64_t max_failed_partitions = 0;
};

/// Diagnostics reported alongside the private correlation matrix.
struct MleEstimate {
  linalg::Matrix correlation;     // The DP correlation matrix P~ (valid).
  std::int64_t num_partitions = 0;
  std::int64_t rows_per_partition = 0;
  /// Trailing n mod l rows that belong to no partition and did not
  /// influence the estimate (also logged and counted as mle.rows_dropped).
  std::int64_t rows_dropped = 0;
  /// Partition fits that failed and were excluded from the average (always
  /// <= options.max_failed_partitions on a returned estimate).
  std::int64_t failed_partitions = 0;
  double laplace_scale = 0.0;     // Noise scale per averaged coefficient.
  bool repaired = false;
};

/// Computes the DP correlation matrix of Algorithm 2: split the data into l
/// disjoint partitions, fit the Gaussian copula on each via the
/// normal-scores pseudo-MLE (see DESIGN.md §3 substitution 5), average the
/// per-partition coefficient estimates, and add Laplace noise with scale
/// C(m,2) * Lambda / (l * epsilon2) where Lambda = 2 is the diameter of a
/// correlation coefficient's space. Parallel composition over the disjoint
/// partitions plus sequential composition over coefficients gives
/// epsilon2-DP.
///
/// Each partition's rows are a contiguous block, so its pseudo-observations
/// come from a counting pass: bucket the block's values by llround bin,
/// prefix-sum the histogram, and evaluate Phi^-1 once per distinct bin
/// through the batch kernel. Domains too large for a dense histogram take a
/// sorted sparse variant whose cost is O(b log b) per partition,
/// independent of the domain size. Normal scores land in a flat
/// column-major buffer sliced zero-copy per partition, and each partition's
/// correlation runs as a 256-row blocked accumulation
/// (NormalScoresCorrelationTiledPacked). The released matrix is
/// bit-identical for any thread count.
///
/// A non-finite value anywhere in a column, including the dropped n mod l
/// remainder rows, fails the whole estimate up front, and partitions longer
/// than uint32 can index are rejected. An out-of-domain value fails only its
/// own partition, with EmpiricalCdf::FromData's message for its column; see
/// `max_failed_partitions` for what a failed partition costs.
Result<MleEstimate> EstimateMleCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const MleEstimatorOptions& options = {});

/// The paper's partition-count rule: ceil(C(m,2) / (0.025 * epsilon2)).
std::int64_t PaperMlePartitionCount(std::size_t m, double epsilon2);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_MLE_ESTIMATOR_H_
