#include "copula/sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "linalg/cholesky.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"

namespace dpcopula::copula {

namespace {

// Rows emitted by the tiled kernel: with sampler.shard_seconds this gives
// the rows/sec of Algorithm 3 (the report divides counter by histogram
// sum). Updated once per shard, never per row.
obs::Counter* RowsEmittedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sampler.rows_emitted");
  return counter;
}

obs::Counter* TRowsEmittedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sampler.t_rows_emitted");
  return counter;
}

obs::Histogram* ShardSecondsHistogram() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram("sampler.shard_seconds");
  return histogram;
}

// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kCholeskySeconds =
    obs::MetricsRegistry::Global().GetHistogram("profile.cholesky_seconds");
obs::Histogram* const kGaussianFillSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.gaussian_fill_seconds");
obs::Histogram* const kCholeskyApplySeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.cholesky_apply_seconds");
obs::Histogram* const kInverseCdfSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.inverse_cdf_seconds");

Status ValidateMargins(const data::Schema& schema,
                       const std::vector<stats::EmpiricalCdf>& marginal_cdfs) {
  const std::size_t m = schema.num_attributes();
  if (m == 0) return Status::InvalidArgument("empty schema");
  if (marginal_cdfs.size() != m) {
    return Status::InvalidArgument("need one marginal CDF per attribute");
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (marginal_cdfs[j].domain_size() != schema.attribute(j).domain_size) {
      return Status::InvalidArgument("CDF domain mismatch for attribute '" +
                                     schema.attribute(j).name + "'");
    }
  }
  return Status::OK();
}

/// Scratch buffers for one tile: the raw Gaussian block, the correlated
/// block (both column-major, column j of the tile at [j * kSamplerTileRows],
/// so the triangular mat-mul and the output stores run over contiguous runs
/// of kSamplerTileRows doubles) and the t family's per-row scale.
struct TileScratch {
  explicit TileScratch(std::size_t m)
      : z(m * kSamplerTileRows), w(m * kSamplerTileRows),
        scale(kSamplerTileRows) {}
  std::vector<double> z;
  std::vector<double> w;
  std::vector<double> scale;
};

/// w[i][:] = sum_{k <= i} L(i,k) * z[k][:] — the Cholesky factor applied as
/// a blocked lower-triangular mat-mul. Each (i, k) pair is one axpy over a
/// contiguous tile column, which the compiler vectorizes.
void ApplyCholeskyTile(const linalg::Matrix& chol, std::size_t m,
                       std::size_t tile_rows, const double* z, double* w) {
  for (std::size_t i = 0; i < m; ++i) {
    double* wi = w + i * kSamplerTileRows;
    const double l0 = chol(i, 0);
    const double* z0 = z;
    for (std::size_t r = 0; r < tile_rows; ++r) wi[r] = l0 * z0[r];
    for (std::size_t k = 1; k <= i; ++k) {
      const double lk = chol(i, k);
      const double* zk = z + k * kSamplerTileRows;
      for (std::size_t r = 0; r < tile_rows; ++r) wi[r] += lk * zk[r];
    }
  }
}

}  // namespace

SamplingPlan::SamplingPlan(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs)
    : schema_(schema) {
  tables_.reserve(marginal_cdfs.size());
  for (const auto& cdf : marginal_cdfs) tables_.emplace_back(cdf);
}

Result<SamplingPlan> SamplingPlan::Gaussian(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation) {
  DPC_RETURN_NOT_OK(ValidateMargins(schema, marginal_cdfs));
  const std::size_t m = schema.num_attributes();
  if (correlation.rows() != m || correlation.cols() != m) {
    return Status::InvalidArgument("correlation shape mismatch");
  }
  // The factorization is timed here rather than inside linalg: PSD
  // repair also runs CholeskyDecompose internally (the PD probe), and
  // stages must stay disjoint.
  DPC_ASSIGN_OR_RETURN(linalg::Matrix chol, [&] {
    obs::Span stage("cholesky", kCholeskySeconds);
    return linalg::CholeskyDecompose(correlation);
  }());
  SamplingPlan plan(schema, marginal_cdfs);
  plan.chol_ = std::move(chol);
  return plan;
}

Result<SamplingPlan> SamplingPlan::StudentT(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof) {
  if (!(dof > 0.0 && std::isfinite(dof))) {
    return Status::InvalidArgument("t sampler: dof must be finite and > 0");
  }
  DPC_ASSIGN_OR_RETURN(SamplingPlan plan,
                       Gaussian(schema, marginal_cdfs, correlation));
  plan.dof_ = dof;
  return plan;
}

Result<SamplingPlan> SamplingPlan::Empirical(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    std::shared_ptr<const EmpiricalCopula> copula) {
  DPC_RETURN_NOT_OK(ValidateMargins(schema, marginal_cdfs));
  if (!copula || copula->dims() != schema.num_attributes()) {
    return Status::InvalidArgument("empirical copula dimension mismatch");
  }
  SamplingPlan plan(schema, marginal_cdfs);
  plan.grid_ = std::move(copula);
  return plan;
}

Result<data::Table> SamplingPlan::Sample(std::size_t num_rows, Rng* rng,
                                         int num_threads) const {
  if (num_rows > kMaxSampleRows) {
    return Status::InvalidArgument(
        "sample row count exceeds the longest column a table can hold");
  }
  data::Table out = data::Table::Zeros(schema_, num_rows);
  std::vector<double*> columns(tables_.size());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    columns[j] = out.mutable_column(j).data();
  }
  DPC_RETURN_NOT_OK(SampleInto(num_rows, rng, num_threads, columns.data()));
  return out;
}

Status SamplingPlan::SampleInto(std::size_t num_rows, Rng* rng,
                                int num_threads,
                                double* const* columns) const {
  const std::size_t m = tables_.size();
  if (grid_) {
    // One grid cell and its jitter per row, in row order from `rng`.
    for (std::size_t r = 0; r < num_rows; ++r) {
      const std::vector<double> u = grid_->SampleUniforms(rng);
      for (std::size_t j = 0; j < m; ++j) {
        columns[j][r] = static_cast<double>(tables_[j].Lookup(u[j]));
      }
    }
    return Status::OK();
  }
  const bool student_t = dof_ > 0.0;
  // Fail-closed flag: a row-level fault anywhere aborts the whole sample —
  // a partially-filled table must never be released.
  std::atomic<bool> injected_failure{false};
  // Rows are sharded with a fixed grain and one split RNG per shard, so the
  // output is bit-identical for every thread count (including 1). Each shard
  // writes a disjoint row range of the columns — no synchronization needed.
  ParallelForSharded(
      0, num_rows, kSamplerShardRows, rng,
      [&](std::size_t row_begin, std::size_t row_end, Rng* shard_rng) {
        // Per-shard and per-tile scopes are histogram-only: a span record
        // per tile would scale the trace with the row count.
        obs::Span shard_timer(ShardSecondsHistogram());
        const auto shard_rows = static_cast<std::int64_t>(row_end - row_begin);
        RowsEmittedCounter()->Add(shard_rows);
        if (student_t) TRowsEmittedCounter()->Add(shard_rows);
        TileScratch scratch(m);
        for (std::size_t tile = row_begin; tile < row_end;
             tile += kSamplerTileRows) {
          const std::size_t tile_rows =
              std::min(kSamplerTileRows, row_end - tile);
          for (std::size_t r = 0; r < tile_rows; ++r) {
            if (DPC_FAILPOINT_AT("sampler.row", tile + r)) {
              injected_failure.store(true, std::memory_order_relaxed);
              return;
            }
          }
          {
            // Draw order within a tile is fixed: the Gaussian block column
            // by column, then (t only) one chi-squared mixing variable per
            // record. Each column is filled at its own stride, so a partial
            // tile gives every column tile_rows fresh draws; a full tile
            // draws the same m * kSamplerTileRows values in the same order
            // as one contiguous fill.
            obs::Span stage(kGaussianFillSeconds);
            for (std::size_t k = 0; k < m; ++k) {
              shard_rng->FillGaussian(scratch.z.data() + k * kSamplerTileRows,
                                      tile_rows);
            }
            if (student_t) {
              for (std::size_t r = 0; r < tile_rows; ++r) {
                const double w = stats::SampleChiSquared(shard_rng, dof_);
                scratch.scale[r] = std::sqrt(dof_ / w);
              }
            }
          }
          {
            obs::Span stage(kCholeskyApplySeconds);
            ApplyCholeskyTile(chol_, m, tile_rows, scratch.z.data(),
                              scratch.w.data());
          }
          obs::Span stage(kInverseCdfSeconds);
          for (std::size_t j = 0; j < m; ++j) {
            double* col = columns[j] + tile;
            const double* wj = scratch.w.data() + j * kSamplerTileRows;
            const stats::InverseCdfTable& table = tables_[j];
            if (student_t) {
              for (std::size_t r = 0; r < tile_rows; ++r) {
                const double t =
                    stats::StudentTCdf(wj[r] * scratch.scale[r], dof_);
                col[r] = static_cast<double>(table.Lookup(t));
              }
            } else {
              for (std::size_t r = 0; r < tile_rows; ++r) {
                col[r] = static_cast<double>(table.LookupGaussian(wj[r]));
              }
            }
          }
        }
      },
      num_threads);
  if (injected_failure.load(std::memory_order_relaxed)) {
    return failpoint::InjectedFault("sampler.row");
  }
  return Status::OK();
}

Result<data::Table> SampleSyntheticData(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads) {
  DPC_ASSIGN_OR_RETURN(const SamplingPlan plan,
                       SamplingPlan::Gaussian(schema, marginal_cdfs,
                                              correlation));
  return plan.Sample(num_rows, rng, num_threads);
}

}  // namespace dpcopula::copula
