#ifndef DPCOPULA_BASELINES_RANGE_ESTIMATOR_H_
#define DPCOPULA_BASELINES_RANGE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/table.h"
#include "hist/histogram.h"

namespace dpcopula::baselines {

/// Common interface every private release mechanism exposes for evaluation:
/// estimate the answer to the paper's range-count query (§5.1)
///   SELECT COUNT(*) WHERE A_1 in [lo_1, hi_1] AND ... AND A_m in [lo_m, hi_m]
/// with inclusive bounds.
class RangeCountEstimator {
 public:
  virtual ~RangeCountEstimator() = default;

  virtual double EstimateRangeCount(
      const std::vector<std::int64_t>& lo,
      const std::vector<std::int64_t>& hi) const = 0;

  /// Short method name for reports ("DPCopula", "PSD", ...).
  virtual std::string name() const = 0;
};

/// Adapter: answers by counting rows of a (synthetic) table — how DPCopula's
/// released dataset is queried.
class TableEstimator : public RangeCountEstimator {
 public:
  TableEstimator(data::Table table, std::string name)
      : table_(std::move(table)), name_(std::move(name)) {}

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const override {
    std::vector<double> dlo(lo.begin(), lo.end());
    std::vector<double> dhi(hi.begin(), hi.end());
    return static_cast<double>(table_.RangeCount(dlo, dhi));
  }

  std::string name() const override { return name_; }

  const data::Table& table() const { return table_; }

 private:
  data::Table table_;
  std::string name_;
};

/// Adapter for oversampled synthetic tables: counts rows and scales by
/// `count_scale` (= original_rows / synthetic_rows). Used with
/// DpCopulaOptions::oversample_factor, which shrinks the binomial sampling
/// noise of the released table at zero privacy cost.
class ScaledTableEstimator : public RangeCountEstimator {
 public:
  ScaledTableEstimator(data::Table table, double count_scale,
                       std::string name)
      : inner_(std::move(table), std::move(name)), scale_(count_scale) {}

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const override {
    return scale_ * inner_.EstimateRangeCount(lo, hi);
  }

  std::string name() const override { return inner_.name(); }

 private:
  TableEstimator inner_;
  double scale_;
};

/// Adapter: answers by summing a (noisy) dense histogram.
class HistogramEstimator : public RangeCountEstimator {
 public:
  HistogramEstimator(hist::Histogram histogram, std::string name)
      : histogram_(std::move(histogram)), name_(std::move(name)) {}

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const override {
    return histogram_.RangeSum(lo, hi);
  }

  std::string name() const override { return name_; }

  const hist::Histogram& histogram() const { return histogram_; }

 private:
  hist::Histogram histogram_;
  std::string name_;
};

}  // namespace dpcopula::baselines

#endif  // DPCOPULA_BASELINES_RANGE_ESTIMATOR_H_
