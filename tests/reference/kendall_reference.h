// Test oracles for Kendall's tau (stats/kendall.cc) and the DP Kendall
// estimator (copula/kendall_estimator.cc):
//
//  - KendallTau: Knight's O(n log n) sort-and-merge algorithm, one
//    comparator sort per pair, that predates the shared per-column rank
//    caches. Its integer pair counts equal the rank-cache kernel's, so the
//    two taus agree to the last bit.
//  - KendallTauBruteForce: the O(n^2) definition, pair by pair.
//  - EstimateKendallCorrelation: Algorithm 5 with one KendallTau sort per
//    pair, the O(m^2 n log n) estimator. It draws the same subsample and
//    the same per-pair Split streams as the production estimator, in the
//    same order, so the two release bit-identical matrices. Sequential,
//    with no fail points, logs or metrics.
//
// None of them calls the production tau kernel.
#ifndef DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "data/table.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/psd_repair.h"
#include "stats/distributions.h"

namespace dpcopula::reference {

inline std::uint64_t MergeCountInversions(std::vector<double>* values,
                                          std::vector<double>* scratch,
                                          std::size_t lo, std::size_t hi) {
  if (hi - lo <= 1) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::uint64_t count = MergeCountInversions(values, scratch, lo, mid) +
                        MergeCountInversions(values, scratch, mid, hi);
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if ((*values)[j] < (*values)[i]) {
      // Element from the right half precedes mid - i remaining left
      // elements: each forms an inversion.
      count += mid - i;
      (*scratch)[k++] = (*values)[j++];
    } else {
      (*scratch)[k++] = (*values)[i++];
    }
  }
  while (i < mid) (*scratch)[k++] = (*values)[i++];
  while (j < hi) (*scratch)[k++] = (*values)[j++];
  std::copy(scratch->begin() + static_cast<std::ptrdiff_t>(lo),
            scratch->begin() + static_cast<std::ptrdiff_t>(hi),
            values->begin() + static_cast<std::ptrdiff_t>(lo));
  return count;
}

// Sum over groups of equal values of C(group_size, 2). `values` must be
// sorted (or grouped) by the caller.
inline std::uint64_t TiedPairs(const std::vector<double>& sorted) {
  std::uint64_t ties = 0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const std::uint64_t g = j - i;
    ties += g * (g - 1) / 2;
    i = j;
  }
  return ties;
}

inline Status NonFiniteInput() {
  // Deliberately data-independent: no values, no positions.
  return Status::InvalidArgument("KendallTau: non-finite input");
}

inline bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Counts inversions in `values` by merge sort.
inline std::uint64_t CountInversions(std::vector<double> values) {
  std::vector<double> scratch(values.size());
  return MergeCountInversions(&values, &scratch, 0, values.size());
}

/// O(n log n) implementation (Knight's algorithm: sort by x, count
/// discordant pairs as merge-sort inversions on y, correct for ties).
/// Rejects non-finite input: a NaN in either column would make the (x, y)
/// comparator a non-strict weak order, which is UB in std::sort.
inline Result<double> KendallTau(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("KendallTau: size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  // A NaN in either column makes the (x, y) comparator below a non-strict
  // weak order — UB in std::sort — so fail closed first.
  if (!AllFinite(x) || !AllFinite(y)) return NonFiniteInput();

  // Sort indices by (x, y).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return y[a] < y[b];
  });

  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = x[order[i]];
    ys[i] = y[order[i]];
  }

  // Pairs tied on x (including tied on both).
  std::uint64_t ties_x = 0;
  std::uint64_t ties_xy = 0;
  {
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && xs[j] == xs[i]) ++j;
      const std::uint64_t g = j - i;
      ties_x += g * (g - 1) / 2;
      // Within an x-group, count pairs also tied on y.
      std::vector<double> group(ys.begin() + static_cast<std::ptrdiff_t>(i),
                                ys.begin() + static_cast<std::ptrdiff_t>(j));
      std::sort(group.begin(), group.end());
      ties_xy += TiedPairs(group);
      i = j;
    }
  }

  // Discordant pairs among x-distinct pairs = inversions of y in x-order
  // (pairs with equal x contribute no inversion because their y's are sorted
  // ascending within the group). The merge sort leaves `y_sorted` fully
  // sorted, which the tie count below reuses — one O(n log n) sort instead
  // of two per pair.
  std::vector<double> y_sorted = ys;
  std::uint64_t inversions = 0;
  {
    std::vector<double> scratch(n);
    inversions = MergeCountInversions(&y_sorted, &scratch, 0, n);
  }

  // Pairs tied on y overall.
  const std::uint64_t ties_y = TiedPairs(y_sorted);

  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Concordant + discordant = total - (tied on x only) - (tied on y only)
  //                         - (tied on both); inclusion–exclusion:
  const std::uint64_t tied_any = ties_x + ties_y - ties_xy;
  const std::uint64_t discordant = inversions;
  const std::uint64_t concordant = total - tied_any - discordant;

  // tau-a denominator C(n, 2) per the paper's Definition 3.5.
  const double tau = (static_cast<double>(concordant) -
                      static_cast<double>(discordant)) /
                     static_cast<double>(total);
  return tau;
}

/// O(n^2) brute-force reference.
/// Rejects non-finite input like KendallTau (NaN comparisons would
/// silently drop pairs instead of failing loudly).
inline Result<double> KendallTauBruteForce(const std::vector<double>& x,
                                           const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("KendallTau: size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  // NaN differences compare false against both 0.0 inequalities, silently
  // dropping those pairs; reject loudly instead, mirroring the fast path.
  if (!AllFinite(x) || !AllFinite(y)) return NonFiniteInput();
  std::int64_t net = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      const double prod = dx * dy;
      if (prod > 0.0) ++net;
      if (prod < 0.0) --net;
    }
  }
  const double total = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(net) / total;
}

inline Result<copula::KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::KendallEstimatorOptions& options = {}) {
  const std::size_t m = table.num_columns();
  const auto n = static_cast<std::int64_t>(table.num_rows());
  if (m < 2) {
    return Status::InvalidArgument("Kendall estimator needs >= 2 columns");
  }
  if (n < 2) {
    return Status::InvalidArgument("Kendall estimator needs >= 2 rows");
  }
  if (!(epsilon2 > 0.0)) {
    return Status::InvalidArgument("epsilon2 must be > 0");
  }

  std::int64_t n_used = n;
  if (options.subsample) {
    n_used = std::min(n, copula::AdequateKendallSampleSize(m, epsilon2));
  }
  n_used = std::max<std::int64_t>(n_used, 2);

  // One shared subsample: a partial Fisher–Yates over the row indices.
  std::vector<std::vector<double>> cols(m);
  if (n_used == n) {
    for (std::size_t j = 0; j < m; ++j) cols[j] = table.column(j);
  } else {
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    for (std::int64_t i = 0; i < n_used; ++i) {
      const auto j = static_cast<std::size_t>(
          rng->NextInt64InRange(i, n - 1));
      std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      cols[j].resize(static_cast<std::size_t>(n_used));
      for (std::int64_t i = 0; i < n_used; ++i) {
        cols[j][static_cast<std::size_t>(i)] =
            table.column(j)[idx[static_cast<std::size_t>(i)]];
      }
    }
  }

  // Lemma 4.1 sensitivity 4 / (n_used + 1), epsilon2 / C(m,2) per pair.
  const double num_pairs = static_cast<double>(m) * (m - 1) / 2.0;
  const double sensitivity = 4.0 / (static_cast<double>(n_used) + 1.0);
  const double scale = num_pairs * sensitivity / epsilon2;

  // Every pair's stream is split off `rng` before any pair draws noise.
  std::vector<Rng> pair_rngs;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) pair_rngs.push_back(rng->Split());
  }
  linalg::Matrix p = linalg::Matrix::Identity(m);
  std::size_t pair = 0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k, ++pair) {
      DPC_ASSIGN_OR_RETURN(const double tau, KendallTau(cols[j], cols[k]));
      double noisy_tau = tau + stats::SampleLaplace(&pair_rngs[pair], scale);
      noisy_tau = std::clamp(noisy_tau, -1.0, 1.0);
      p(j, k) = p(k, j) = std::sin(M_PI / 2.0 * noisy_tau);  // Eq. (4).
    }
  }

  copula::KendallEstimate est;
  est.rows_used = n_used;
  est.per_pair_epsilon = epsilon2 / num_pairs;
  est.laplace_scale = scale;
  est.repaired = !linalg::IsPositiveDefinite(p);
  linalg::PsdRepairOptions repair_options;
  repair_options.num_threads = options.num_threads;
  DPC_ASSIGN_OR_RETURN(est.correlation,
                       linalg::EnsureCorrelationMatrix(p, repair_options));
  return est;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_KENDALL_REFERENCE_H_
