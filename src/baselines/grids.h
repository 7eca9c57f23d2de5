#ifndef DPCOPULA_BASELINES_GRIDS_H_
#define DPCOPULA_BASELINES_GRIDS_H_

#include <memory>

#include "baselines/range_estimator.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"

namespace dpcopula::baselines {

/// UG / AG — uniform and adaptive grids for two-dimensional data (Qardaji,
/// Yang & Li, ICDE 2013 [33]), the 2-D specialist mechanism the paper's
/// related work cites. Both partition the 2-D domain into rectangular
/// cells, release one noisy count per cell (cells are disjoint, so parallel
/// composition charges epsilon once), and answer range queries with
/// within-cell uniformity.
///
/// UG picks the grid granularity g = ceil(sqrt(n * epsilon / c)) that
/// balances noise error (grows with g^2 cells touched) against uniformity
/// error (shrinks with g); c ~ 10 from [33].
struct UniformGridOptions {
  double c = 10.0;
  std::int64_t max_cells_per_axis = 1024;
};

class UniformGrid {
 public:
  /// Builds a UG over a 2-attribute table consuming `epsilon`.
  static Result<std::unique_ptr<UniformGrid>> Build(
      const data::Table& table, double epsilon, Rng* rng,
      const UniformGridOptions& options = {});

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const;

  /// Cells per axis (may be clamped by the attribute domains).
  std::int64_t granularity_x() const { return gx_; }
  std::int64_t granularity_y() const { return gy_; }

 private:
  friend class AdaptiveGrid;
  std::int64_t gx_ = 0, gy_ = 0;  // Cells per axis.
  std::int64_t wx_ = 1, wy_ = 1;  // Cell widths in domain units.
  std::vector<std::int64_t> domain_ = {0, 0};
  std::vector<double> cells_;  // gx x gy noisy counts, row-major.
};

/// AG: a coarse first-level grid with alpha * epsilon, then each first-
/// level cell is subdivided adaptively based on its noisy count, with the
/// remaining budget on the sub-cells (again parallel composition).
struct AdaptiveGridOptions {
  double alpha = 0.5;  // Budget share of the first level.
  double c1 = 10.0;    // First-level granularity constant.
  double c2 = 5.0;     // Second-level granularity constant ([33] uses c/2).
  std::int64_t max_cells_per_axis = 1024;
};

class AdaptiveGrid : public RangeCountEstimator {
 public:
  static Result<std::unique_ptr<AdaptiveGrid>> Build(
      const data::Table& table, double epsilon, Rng* rng,
      const AdaptiveGridOptions& options = {});

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const override;

  std::string name() const override { return "AG"; }

  std::size_t num_level2_regions() const { return regions_.size(); }

 private:
  struct Region {
    std::vector<std::int64_t> lo, hi;  // Inclusive box.
    std::int64_t g = 1;                // Sub-grid granularity.
    std::vector<double> cells;         // g x g noisy sub-counts.
  };
  std::vector<Region> regions_;
};

}  // namespace dpcopula::baselines

#endif  // DPCOPULA_BASELINES_GRIDS_H_
