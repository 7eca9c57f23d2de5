#ifndef DPCOPULA_COPULA_SAMPLER_H_
#define DPCOPULA_COPULA_SAMPLER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "copula/empirical_copula.h"
#include "data/table.h"
#include "linalg/matrix.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::copula {

/// Fixed row-shard size for parallel sampling. The shard decomposition
/// (and therefore the per-shard RNG split sequence) depends only on
/// `num_rows`, never on the thread count, so sampled tables are
/// bit-identical for any `num_threads`.
inline constexpr std::size_t kSamplerShardRows = 4096;

/// Rows per tile of the blocked sampling kernel. A tile's working set is
/// 2 * m * kSamplerTileRows doubles (the Gaussian block and the correlated
/// block), ~40 KB at m = 10 — sized to stay cache-resident while keeping
/// the per-tile loop overhead negligible. Divides kSamplerShardRows so only
/// the final shard ever sees a partial tile.
inline constexpr std::size_t kSamplerTileRows = 256;

/// The most rows one Sample() call allocates: the longest column a
/// std::vector<double> can hold. Larger requests are InvalidArgument.
inline constexpr std::size_t kMaxSampleRows =
    std::vector<double>().max_size();

/// Algorithm 3 — sampling DP synthetic data — compiled once per fitted
/// model:
///  1a. draw z ~ N(0, correlation) (Cholesky of the DP correlation matrix),
///      or x ~ t_dof(0, correlation) for the Student-t family;
///  1b. map to the unit cube through the univariate normal (or t) CDF;
///  2.  map through the inverse DP empirical marginal CDFs,
///      x_j = F~_j^{-1}(t_j), landing in the original attribute domains.
/// The empirical (checkerboard) family draws the unit-cube point straight
/// from its DP grid instead of steps 1a-1b.
///
/// A plan holds the schema, one InverseCdfTable per column, the Cholesky
/// factor and the family. It is immutable, so one plan can serve any number
/// of concurrent Sample() calls. Sampling is pure post-processing of DP
/// outputs and consumes no privacy budget. Every factory takes one CDF per
/// schema attribute, with matching domains.
class SamplingPlan {
 public:
  static Result<SamplingPlan> Gaussian(
      const data::Schema& schema,
      const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
      const linalg::Matrix& correlation);

  /// Student-t copula (the paper's future-work extension): captures the
  /// symmetric tail dependence the Gaussian copula cannot express. `dof`
  /// must be finite and > 0.
  static Result<SamplingPlan> StudentT(
      const data::Schema& schema,
      const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
      const linalg::Matrix& correlation, double dof);

  /// Empirical checkerboard copula with one grid axis per attribute. The
  /// plan shares the grid rather than copying it.
  static Result<SamplingPlan> Empirical(
      const data::Schema& schema,
      const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
      std::shared_ptr<const EmpiricalCopula> copula);

  /// Draws `num_rows` rows. Gaussian and t run one tiled kernel on the
  /// shared thread pool: rows are cut into kSamplerShardRows-sized shards,
  /// each with its own RNG split off `*rng` in shard order, so 1 thread and
  /// N threads give byte-identical tables. The empirical family draws
  /// sequentially from `*rng` itself. `num_threads`: 0 = hardware
  /// concurrency, <= 1 = sequential. More than kMaxSampleRows rows is
  /// InvalidArgument, before anything is allocated or drawn.
  Result<data::Table> Sample(std::size_t num_rows, Rng* rng,
                             int num_threads = 1) const;

  /// Sample's draws written into caller-owned storage: column j of the
  /// sample goes to columns[j][0, num_rows) and nothing else is written.
  /// Sample allocates its table and calls this, so both give the same
  /// bytes and leave `*rng` at the same point. On an injected `sampler.row`
  /// fault the columns are partly written and must not be released.
  Status SampleInto(std::size_t num_rows, Rng* rng, int num_threads,
                    double* const* columns) const;

 private:
  SamplingPlan(const data::Schema& schema,
               const std::vector<stats::EmpiricalCdf>& marginal_cdfs);

  data::Schema schema_;
  std::vector<stats::InverseCdfTable> tables_;
  linalg::Matrix chol_;  // Gaussian and t.
  // The family is Gaussian unless dof_ > 0 (Student-t) or grid_ is set
  // (empirical).
  double dof_ = 0.0;
  std::shared_ptr<const EmpiricalCopula> grid_;
};

/// Gaussian-copula Algorithm 3 in one call: SamplingPlan::Gaussian, then
/// Sample. Callers that sample a model more than once should keep the plan.
Result<data::Table> SampleSyntheticData(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads = 1);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_SAMPLER_H_
