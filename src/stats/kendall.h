#ifndef DPCOPULA_STATS_KENDALL_H_
#define DPCOPULA_STATS_KENDALL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace dpcopula::stats {

/// Sample Kendall's tau-a rank correlation (Definition 3.5 of the paper):
///   tau = (n_c - n_d) / C(n, 2)
/// where n_c / n_d count concordant / discordant pairs; tied pairs count as
/// neither. This is the estimator whose sensitivity the paper bounds by
/// 4/(n+1) (Lemma 4.1).

/// Per-column rank structures, computed once in O(n log n) and reused by
/// every pair touching the column: dense rank codes (0 .. num_distinct-1,
/// order-preserving, equal values share a code), the sorted permutation,
/// and the column's tied-pair count sum_g C(g, 2).
struct RankColumn {
  std::vector<std::uint32_t> rank;   // Dense rank code per row.
  std::vector<std::uint32_t> order;  // Row indices sorted by value (stable).
  std::uint32_t num_distinct = 0;
  std::uint64_t tied_pairs = 0;      // Pairs tied on this column.
};

/// Builds the rank structures for one column. Rejects non-finite values
/// (NaN would break the sort's strict weak order) and columns longer than
/// uint32 can index.
Result<RankColumn> BuildRankColumn(const std::vector<double>& values);

/// Reusable scratch for the pairwise rank-cache kernels. One instance per
/// worker thread: buffers grow to the high-water mark once and every
/// subsequent pair reuses them — no per-pair allocations on the hot path.
struct TauWorkspace {
  std::vector<std::uint32_t> codes;    // y rank codes in (x, y) order.
  std::vector<std::uint32_t> scratch;  // Merge-count scratch.
  std::vector<std::uint32_t> starts;   // x-group start offsets (d_x + 1).
  std::vector<std::uint32_t> cursor;   // Counting-sort write cursors.
  std::vector<std::uint32_t> cells;    // Contingency counts (d_x * d_y).
  std::vector<std::uint64_t> cum;      // Earlier-x row counts per y code.
};

/// True when the contingency-table kernel (O(n + d_x * d_y) per pair) beats
/// the merge-count kernel (O(n log n) per pair) for this pair's distinct
/// counts — i.e. when the domain product is small relative to n.
bool UseContingencyKernel(std::uint64_t n, std::uint32_t dx, std::uint32_t dy);

/// Pairwise tau from shared rank columns — the Kendall estimator's kernel:
/// per-column rank structures built once and shared by every pair. Picks
/// the contingency-table path when UseContingencyKernel() says so,
/// otherwise a counting-sort + merge-count path; both produce the exact
/// integer pair counts, so the returned tau is bit-identical to Knight's
/// sort-and-merge algorithm on the same data (tests/reference holds it as
/// an oracle).
Result<double> KendallTauFromRanks(const RankColumn& x, const RankColumn& y,
                                   TauWorkspace* ws);

/// Tau of one pair of columns: BuildRankColumn on each, then
/// KendallTauFromRanks. Callers with many pairs over the same columns
/// should build each RankColumn once instead. Rejects a size mismatch,
/// fewer than 2 points and non-finite input, in that order.
Result<double> KendallTau(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace dpcopula::stats

#endif  // DPCOPULA_STATS_KENDALL_H_
