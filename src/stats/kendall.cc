#include "stats/kendall.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dpcopula::stats {

namespace {

template <typename T>
std::uint64_t MergeCountInversions(std::vector<T>* values,
                                   std::vector<T>* scratch,
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

Status NonFiniteInput() {
  // Deliberately data-independent: no values, no positions.
  return Status::InvalidArgument("KendallTau: non-finite input");
}

bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Result<RankColumn> BuildRankColumn(const std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("rank column: too many rows");
  }
  if (!AllFinite(values)) return NonFiniteInput();

  RankColumn col;
  col.order.resize(n);
  std::iota(col.order.begin(), col.order.end(), 0);
  // Tie-break on the row index so the permutation is deterministic (the
  // rank codes do not depend on it, but downstream consumers of `order`
  // should see one canonical order).
  std::sort(col.order.begin(), col.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (values[a] != values[b]) return values[a] < values[b];
              return a < b;
            });

  col.rank.resize(n);
  std::uint32_t code = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && values[col.order[j]] == values[col.order[i]]) ++j;
    for (std::size_t k = i; k < j; ++k) col.rank[col.order[k]] = code;
    const std::uint64_t g = j - i;
    col.tied_pairs += g * (g - 1) / 2;
    ++code;
    i = j;
  }
  col.num_distinct = code;
  return col;
}

bool UseContingencyKernel(std::uint64_t n, std::uint32_t dx,
                          std::uint32_t dy) {
  // Contingency costs O(n + dx*dy) against the merge path's O(n log n);
  // the table wins comfortably while its zero/scan cost stays within a
  // couple of passes over the data. The 4096 floor keeps genuinely small
  // domain products (the common discrete-attribute case) on the table
  // path even for tiny n.
  const std::uint64_t cells =
      static_cast<std::uint64_t>(dx) * static_cast<std::uint64_t>(dy);
  return cells <= std::max<std::uint64_t>(4096, 2 * n);
}

Result<double> KendallTauFromRanks(const RankColumn& x, const RankColumn& y,
                                   TauWorkspace* ws) {
  if (x.rank.size() != y.rank.size()) {
    return Status::InvalidArgument("KendallTau: size mismatch");
  }
  const std::size_t n = x.rank.size();
  if (n < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const std::uint32_t dx = x.num_distinct;
  const std::uint32_t dy = y.num_distinct;

  std::uint64_t concordant = 0;
  std::uint64_t discordant = 0;
  if (UseContingencyKernel(n, dx, dy)) {
    // Contingency-table kernel: count the joint cells in one pass, then
    // accumulate concordant/discordant pairs over the d_x * d_y grid. For
    // cell (a, b), `cum[b']` holds the rows with x code < a and y code b',
    // so `lt` (codes < b) pairs concordantly and `S - lt - cum[b]`
    // (codes > b) discordantly; equal-x and equal-y pairs never enter.
    ws->cells.assign(static_cast<std::size_t>(dx) * dy, 0);
    for (std::size_t r = 0; r < n; ++r) {
      ++ws->cells[static_cast<std::size_t>(x.rank[r]) * dy + y.rank[r]];
    }
    ws->cum.assign(dy, 0);
    std::uint64_t seen = 0;  // Rows in x-groups before the current one.
    for (std::uint32_t a = 0; a < dx; ++a) {
      const std::uint32_t* row = ws->cells.data() +
                                 static_cast<std::size_t>(a) * dy;
      std::uint64_t lt = 0;
      for (std::uint32_t b = 0; b < dy; ++b) {
        const std::uint64_t c = row[b];
        if (c != 0) {
          concordant += c * lt;
          discordant += c * (seen - lt - ws->cum[b]);
        }
        lt += ws->cum[b];
      }
      for (std::uint32_t b = 0; b < dy; ++b) {
        ws->cum[b] += row[b];
        seen += row[b];
      }
    }
  } else {
    // Merge-count kernel. A stable counting sort of the y-sorted
    // permutation by x rank code yields the rows in (x, y) order in O(n +
    // d_x), with no comparator sort per pair.
    ws->starts.assign(dx + 1, 0);
    for (std::size_t r = 0; r < n; ++r) ++ws->starts[x.rank[r] + 1];
    for (std::uint32_t c = 0; c < dx; ++c) {
      ws->starts[c + 1] += ws->starts[c];
    }
    ws->cursor.assign(ws->starts.begin(), ws->starts.end());
    ws->codes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = y.order[i];
      ws->codes[ws->cursor[x.rank[r]]++] = y.rank[r];
    }

    // Pairs tied on both coordinates: runs of equal y codes within each
    // x-group (the codes are ascending within a group by construction).
    std::uint64_t ties_xy = 0;
    for (std::uint32_t g = 0; g < dx; ++g) {
      std::size_t i = ws->starts[g];
      const std::size_t end = ws->starts[g + 1];
      while (i < end) {
        std::size_t j = i + 1;
        while (j < end && ws->codes[j] == ws->codes[i]) ++j;
        const std::uint64_t run = j - i;
        ties_xy += run * (run - 1) / 2;
        i = j;
      }
    }

    // Discordant pairs among x-distinct pairs = inversions of the y codes
    // in (x, y) order (within an x-group the codes ascend, contributing
    // none).
    ws->scratch.resize(n);
    discordant = MergeCountInversions(&ws->codes, &ws->scratch, 0, n);

    const std::uint64_t tied_any = x.tied_pairs + y.tied_pairs - ties_xy;
    concordant = total - tied_any - discordant;
  }

  // tau-a denominator C(n, 2) per the paper's Definition 3.5.
  return (static_cast<double>(concordant) -
          static_cast<double>(discordant)) /
         static_cast<double>(total);
}

Result<double> KendallTau(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("KendallTau: size mismatch");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("KendallTau needs at least 2 points");
  }
  DPC_ASSIGN_OR_RETURN(const RankColumn rx, BuildRankColumn(x));
  DPC_ASSIGN_OR_RETURN(const RankColumn ry, BuildRankColumn(y));
  TauWorkspace ws;
  return KendallTauFromRanks(rx, ry, &ws);
}

}  // namespace dpcopula::stats
