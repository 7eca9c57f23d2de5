#include "copula/mle_estimator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "copula/gaussian_copula.h"
#include "linalg/cholesky.h"
#include "linalg/packed_symmetric.h"
#include "linalg/psd_repair.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"
#include "stats/normal.h"

namespace dpcopula::copula {

std::int64_t PaperMlePartitionCount(std::size_t m, double epsilon2) {
  const double md = static_cast<double>(m);
  const double pairs = md * (md - 1.0) / 2.0;
  const double count = std::ceil(pairs / (0.025 * epsilon2));
  // Tiny ε₂ / large m push the count past what int64 can hold (casting an
  // out-of-range double is UB); saturate exactly as
  // AdequateKendallSampleSize does — callers clamp against the actual row
  // count anyway.
  constexpr double kInt64Safe = 9.2e18;
  if (!(count < kInt64Safe)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return static_cast<std::int64_t>(count);
}

namespace {

// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kMlePartitionFitSeconds =
    obs::MetricsRegistry::Global().GetHistogram(
        "profile.mle_partition_fit_seconds");

/// Grow-once scratch for the batched kernel's per-column pseudo-observation
/// pass; one instance per worker thread (same idiom as TauWorkspace).
struct MlePseudoWorkspace {
  std::vector<double> counts;   // Dense path: llround-bin histogram, turned
                                // into its prefix sum in place; restored to
                                // all-zero after every partition.
  std::vector<std::uint32_t> pslot;  // Dense path: eval bin -> pvals slot;
                                     // all-kNoSlot between partitions.
  std::vector<std::int64_t> clean;   // Dense path: pslot entries to restore.
  std::vector<std::int64_t> bins;    // Row slot -> EvaluateMid bin.
  std::vector<std::int64_t> kbuf;    // Sparse path: llround bins, sorted.
  std::vector<std::int64_t> touched;  // Sparse path: distinct bins, asc.
  std::vector<double> cumt;           // Sparse path: cumulative at touched.
  std::vector<std::uint32_t> pslot2;  // Sparse path: (touched idx, exact).
  std::vector<std::uint32_t> pidx;    // Row slot -> pvals index.
  std::vector<double> pvals;          // One p per distinct eval bin.
  std::vector<double> zvals;          // Phi^-1 of pvals, batched.
};

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

Status NonFiniteColumn() {
  return Status::InvalidArgument("MLE kernel: non-finite input");
}

/// A dense domain-sized histogram costs two extra scans of [0, domain) per
/// partition (prefix sum + reset); that beats the sparse path's per-block
/// sort while those scans stay within a few passes over the block itself.
/// Mirrors UseContingencyKernel's shape; the 4096 floor keeps every common
/// discrete-attribute domain on the dense path.
bool UseDenseBins(std::int64_t domain, std::int64_t b) {
  return domain <= std::max<std::int64_t>(4096, 2 * b);
}

/// llround without the libm call: for v >= 0, floor(v + 0.5) rounds half
/// away from zero exactly like llround (v + 0.5 is exact below 2^52). The
/// only disagreement that could change an outcome is v in (-0.5, 0] and the
/// exact half v == -0.5 (floor maps it into bin 0; llround puts it out of
/// domain at -1), so fall back whenever the fast path lands on 0 from a
/// negative value. Anything else negative fails the domain check under
/// both roundings.
std::int64_t LlroundFast(double v) {
  const auto k = static_cast<std::int64_t>(std::floor(v + 0.5));
  if (k == 0 && v < 0.0) return std::llround(v);
  return k;
}

/// Per-partition failure word: the smallest (column, kind) code wins, so a
/// partition with several bad columns reports the same status at every
/// thread count, whichever column's pass records first. kind 0 = bad
/// domain_size, 1 = value out of range.
constexpr std::int64_t kPartitionOk = std::numeric_limits<std::int64_t>::max();

void RecordPartitionFailure(std::atomic<std::int64_t>& state,
                            std::int64_t code) {
  std::int64_t cur = state.load(std::memory_order_relaxed);
  while (code < cur && !state.compare_exchange_weak(
                           cur, code, std::memory_order_relaxed)) {
  }
}

Status PartitionFailureStatus(std::int64_t code) {
  // The messages EmpiricalCdf::FromData gives for the same defects.
  if (code % 2 == 0) {
    return Status::InvalidArgument("EmpiricalCdf: domain_size must be > 0");
  }
  return Status::OutOfRange("EmpiricalCdf: value outside domain");
}

/// Batched-kernel phase 1 for one column: for every partition, a counting
/// pass over its contiguous row block [t*b, (t+1)*b) yields the same
/// pseudo-observations as EmpiricalCdf::FromData + EvaluateMid on the
/// partition slice, bit for bit. Values are counted by llround bin exactly
/// as FromData counts them; the histogram's prefix sum reproduces
/// FromCounts' cumulative array over the same integers; and for a row whose
/// EvaluateMid bin is e (the clamped floor — k or k-1 for the llround bin
/// k, never less), p = (0.5*(lower+upper) + 0.5) / (b + 1.0) is the same
/// expression over the same doubles. Phi^-1 runs once per distinct eval bin
/// through the batch kernel (scalar and AVX2 paths are bit-identical to
/// NormalInverseCdf) instead of once per row.
///
/// Domains too large for a dense histogram take a sorted sparse route:
/// sort the block's bins, read cumulative counts off the run boundaries,
/// and binary-search each row's eval bin — O(b log b) per partition, with
/// no domain-sized scan or allocation anywhere.
Status BuildColumnScores(const std::vector<double>& col, std::int64_t domain,
                         std::int64_t l, std::int64_t b, std::size_t j,
                         double* col_scores,
                         std::vector<std::atomic<std::int64_t>>& part_fail) {
  const auto rows_used = static_cast<std::size_t>(l * b);
  if (domain <= 0) {
    // Fails every partition before any value is scanned.
    const auto code = static_cast<std::int64_t>(j) * 2;
    for (auto& state : part_fail) RecordPartitionFailure(state, code);
    return Status::OK();
  }
  if (b >= static_cast<std::int64_t>(kNoSlot)) {
    return Status::InvalidArgument("MLE kernel: partition too long");
  }

  thread_local MlePseudoWorkspace ws;
  const auto bs = static_cast<std::size_t>(b);
  const double bd = static_cast<double>(b);
  const auto ds = static_cast<std::size_t>(domain);
  const bool dense = UseDenseBins(domain, b);
  if (dense) {
    // Grow-only, so the all-zero / all-kNoSlot invariants the per-partition
    // cleanup maintains extend to any newly added tail.
    if (ws.counts.size() < ds) ws.counts.resize(ds, 0.0);
    if (ws.pslot.size() < ds) ws.pslot.resize(ds, kNoSlot);
  } else {
    ws.kbuf.resize(bs);
    ws.touched.resize(bs);
    ws.cumt.resize(bs);
    ws.pslot2.resize(2 * bs);
  }
  ws.bins.resize(bs);
  ws.pidx.resize(bs);
  ws.pvals.resize(bs);
  ws.zvals.resize(bs);

  for (std::int64_t t = 0; t < l; ++t) {
    const std::size_t base = static_cast<std::size_t>(t) * bs;
    bool failed = false;
    std::size_t i = 0;
    for (; i < bs; ++i) {
      const double v = col[base + i];
      if (!std::isfinite(v)) {
        if (dense) std::fill(ws.counts.begin(), ws.counts.begin() + ds, 0.0);
        return NonFiniteColumn();
      }
      const std::int64_t k = LlroundFast(v);
      if (k < 0 || k >= domain) {
        RecordPartitionFailure(part_fail[static_cast<std::size_t>(t)],
                               static_cast<std::int64_t>(j) * 2 + 1);
        failed = true;
        break;
      }
      if (dense) {
        ws.counts[static_cast<std::size_t>(k)] += 1.0;
      } else {
        ws.kbuf[i] = k;
      }
      const double fv = std::floor(v);
      std::int64_t e = k;
      if (fv != v) {
        e = (fv < 0.0) ? 0 : static_cast<std::int64_t>(fv);
        if (e >= domain) e = domain - 1;
      }
      ws.bins[i] = e;
    }
    if (failed) {
      if (dense) std::fill(ws.counts.begin(), ws.counts.begin() + ds, 0.0);
      // The whole-column non-finite contract covers rows after the failing
      // one, so keep scanning the rest of the block.
      for (++i; i < bs; ++i) {
        if (!std::isfinite(col[base + i])) return NonFiniteColumn();
      }
      continue;
    }

    std::size_t np = 0;
    if (dense) {
      // In-place prefix sum: counts[k] becomes the cumulative count through
      // bin k — FromCounts' accumulation over the same integers.
      double acc = 0.0;
      for (std::size_t kk = 0; kk < ds; ++kk) {
        acc += ws.counts[kk];
        ws.counts[kk] = acc;
      }
      if (ds <= bs) {
        // Bin-table variant: with no more bins than block rows, Phi^-1 of
        // every bin costs no more than deduplicating the rows' eval bins,
        // and the per-row dedup pass disappears entirely.
        double lower = 0.0;
        for (std::size_t kk = 0; kk < ds; ++kk) {
          const double upper = ws.counts[kk];
          ws.pvals[kk] = (0.5 * (lower + upper) + 0.5) / (bd + 1.0);
          lower = upper;
        }
        stats::NormalInverseCdfBatch(ws.pvals.data(), ws.zvals.data(), ds);
        for (std::size_t q = 0; q < bs; ++q) {
          col_scores[base + q] =
              ws.zvals[static_cast<std::size_t>(ws.bins[q])];
        }
        std::fill(ws.counts.begin(), ws.counts.begin() + ds, 0.0);
        continue;
      }
      ws.clean.clear();
      for (std::size_t q = 0; q < bs; ++q) {
        const auto e = static_cast<std::size_t>(ws.bins[q]);
        std::uint32_t s = ws.pslot[e];
        if (s == kNoSlot) {
          const double upper = ws.counts[e];
          const double lower = (e == 0) ? 0.0 : ws.counts[e - 1];
          ws.pvals[np] = (0.5 * (lower + upper) + 0.5) / (bd + 1.0);
          s = static_cast<std::uint32_t>(np++);
          ws.pslot[e] = s;
          ws.clean.push_back(static_cast<std::int64_t>(e));
        }
        ws.pidx[q] = s;
      }
      for (const std::int64_t e : ws.clean) {
        ws.pslot[static_cast<std::size_t>(e)] = kNoSlot;
      }
      std::fill(ws.counts.begin(), ws.counts.begin() + ds, 0.0);
    } else {
      std::sort(ws.kbuf.begin(), ws.kbuf.begin() + bs);
      std::size_t nt = 0;
      double acc = 0.0;
      std::size_t q = 0;
      while (q < bs) {
        std::size_t q_end = q + 1;
        while (q_end < bs && ws.kbuf[q_end] == ws.kbuf[q]) ++q_end;
        // Empty bins between runs contribute 0.0, which leaves the
        // accumulator bit-unchanged, so skipping them matches FromCounts.
        acc += static_cast<double>(q_end - q);
        ws.touched[nt] = ws.kbuf[q];
        ws.cumt[nt] = acc;
        ++nt;
        q = q_end;
      }
      std::fill(ws.pslot2.begin(), ws.pslot2.begin() + 2 * nt, kNoSlot);
      std::uint32_t below_slot = kNoSlot;  // Eval bin below all mass.
      for (std::size_t r = 0; r < bs; ++r) {
        const std::int64_t e = ws.bins[r];
        const auto it = std::upper_bound(ws.touched.begin(),
                                         ws.touched.begin() + nt, e);
        if (it == ws.touched.begin()) {
          // No mass at or below e: lower = upper = 0.
          if (below_slot == kNoSlot) {
            ws.pvals[np] = 0.5 / (bd + 1.0);
            below_slot = static_cast<std::uint32_t>(np++);
          }
          ws.pidx[r] = below_slot;
          continue;
        }
        const auto qi = static_cast<std::size_t>(it - ws.touched.begin()) - 1;
        const bool exact = ws.touched[qi] == e;
        // Non-exact means bin e itself is empty: cumulative through e and
        // through e-1 are both cumt[qi].
        const std::size_t key = 2 * qi + (exact ? 1 : 0);
        std::uint32_t s = ws.pslot2[key];
        if (s == kNoSlot) {
          const double upper = ws.cumt[qi];
          const double lower =
              exact ? ((qi == 0) ? 0.0 : ws.cumt[qi - 1]) : upper;
          ws.pvals[np] = (0.5 * (lower + upper) + 0.5) / (bd + 1.0);
          s = static_cast<std::uint32_t>(np++);
          ws.pslot2[key] = s;
        }
        ws.pidx[r] = s;
      }
    }
    stats::NormalInverseCdfBatch(ws.pvals.data(), ws.zvals.data(), np);
    for (std::size_t q = 0; q < bs; ++q) {
      col_scores[base + q] = ws.zvals[ws.pidx[q]];
    }
  }

  // The dropped n mod l remainder rows are part of the whole-column
  // non-finite contract too.
  for (std::size_t r = rows_used; r < col.size(); ++r) {
    if (!std::isfinite(col[r])) return NonFiniteColumn();
  }
  return Status::OK();
}

}  // namespace

Result<MleEstimate> EstimateMleCorrelation(const data::Table& table,
                                           double epsilon2, Rng* rng,
                                           const MleEstimatorOptions& options) {
  static obs::Counter* const partitions_counter =
      obs::MetricsRegistry::Global().GetCounter("mle.partitions_fit");
  static obs::Counter* const repairs_counter =
      obs::MetricsRegistry::Global().GetCounter("mle.psd_repairs");
  static obs::Gauge* const rows_per_partition_gauge =
      obs::MetricsRegistry::Global().GetGauge("mle.rows_per_partition");
  obs::Span estimate_span("mle.estimate");

  const std::size_t m = table.num_columns();
  const auto n = static_cast<std::int64_t>(table.num_rows());
  if (m < 2) {
    return Status::InvalidArgument("MLE estimator needs >= 2 columns");
  }
  if (!(epsilon2 > 0.0)) {
    return Status::InvalidArgument("epsilon2 must be > 0");
  }

  std::int64_t l = options.num_partitions;
  if (l <= 0) {
    l = PaperMlePartitionCount(m, epsilon2);
    // The paper's rule presumes a very large n; clamp so each partition
    // keeps enough rows to fit a copula at all.
    const std::int64_t max_l =
        std::max<std::int64_t>(1, n / kMleMinPartitionRows);
    l = std::clamp<std::int64_t>(l, 1, max_l);
  }
  const std::int64_t b = n / l;  // Rows per partition; remainder dropped.
  if (b < 2) {
    return Status::InvalidArgument(
        "MLE estimator: fewer than 2 rows per partition (n=" +
        std::to_string(n) + ", l=" + std::to_string(l) + ")");
  }
  // The trailing n mod l rows belong to no partition and never influence
  // the estimate (see DESIGN.md §9). That is a deliberate simplification —
  // the paper assumes l | n — but it must not be silent.
  static obs::Counter* const rows_dropped_counter =
      obs::MetricsRegistry::Global().GetCounter("mle.rows_dropped");
  const std::int64_t rows_dropped = n - b * l;
  if (rows_dropped > 0) {
    rows_dropped_counter->Add(rows_dropped);
    obs::Log(obs::LogLevel::kWarn, "mle.rows_dropped")
        .Field("dropped", rows_dropped)
        .Field("rows", n)
        .Field("partitions", l);
  }

  partitions_counter->Add(l);
  rows_per_partition_gauge->Set(static_cast<double>(b));
  obs::Log(obs::LogLevel::kDebug, "mle.estimate")
      .Field("columns", m)
      .Field("partitions", l)
      .Field("rows_per_partition", b)
      .Field("rows_dropped", rows_dropped)
      .Field("epsilon2", epsilon2);

  // Fit the l disjoint partitions concurrently (the fits are RNG-free and
  // touch disjoint row slices), then average sequentially in partition
  // order so the floating-point sum — and thus the released matrix — is
  // identical for every thread count.
  const obs::SpanId estimate_span_id = estimate_span.id();
  // Per-partition fits are held (and averaged) in packed lower-triangular
  // form: one stored entry per coefficient, so the l-way accumulation pass
  // below touches half the memory of the dense mirror-writing layout.
  std::vector<Result<linalg::PackedSymmetric>> fits(
      static_cast<std::size_t>(l),
      Result<linalg::PackedSymmetric>(Status::Internal("partition not fitted")));
  // Phase 1 (per column): a counting pass per partition block derives the
  // pseudo-observations from histogram prefix sums, batched Phi^-1 per
  // distinct value bin, normal scores written into a flat column-major
  // buffer. Phase 2 (per partition): blocked correlation over zero-copy
  // column slices. Both phases are deterministic for any thread count.
  const auto rows_used = static_cast<std::size_t>(l * b);
  std::vector<double> scores(m * rows_used);
  std::vector<std::atomic<std::int64_t>> part_fail(
      static_cast<std::size_t>(l));
  for (auto& state : part_fail) {
    state.store(kPartitionOk, std::memory_order_relaxed);
  }
  std::vector<Status> col_status(m, Status::OK());
  {
    obs::Span pseudo_span("mle.pseudo_obs", estimate_span_id);
    ParallelFor(
        0, m, /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            col_status[j] = BuildColumnScores(
                table.column(j), table.schema().attribute(j).domain_size, l,
                b, j, scores.data() + j * rows_used, part_fail);
          }
        },
        options.num_threads);
  }
  for (std::size_t j = 0; j < m; ++j) {
    // Whole-estimate failure (non-finite or oversized column): nothing
    // rank-based can be computed. Deterministic: first column wins.
    if (!col_status[j].ok()) return col_status[j];
  }

  ParallelFor(
      0, static_cast<std::size_t>(l), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t ti = begin; ti < end; ++ti) {
          obs::Span fit_span("mle.partition_fit", ti, estimate_span_id,
                             kMlePartitionFitSeconds);
          // Failpoint first, before the partition's data status: an armed
          // fault shadows a data error, the same way at every thread count.
          if (DPC_FAILPOINT_AT("mle.partition_fit", ti)) {
            fits[ti] = failpoint::InjectedFault("mle.partition_fit");
            continue;
          }
          const std::int64_t code =
              part_fail[ti].load(std::memory_order_relaxed);
          if (code != kPartitionOk) {
            fits[ti] = PartitionFailureStatus(code);
            continue;
          }
          thread_local std::vector<const double*> ptrs;
          ptrs.resize(m);
          for (std::size_t j = 0; j < m; ++j) {
            ptrs[j] = scores.data() + j * rows_used +
                      ti * static_cast<std::size_t>(b);
          }
          fits[ti] = NormalScoresCorrelationTiledPacked(
              ptrs.data(), m, static_cast<std::size_t>(b));
        }
      },
      options.num_threads);

  // Degradation policy: average the surviving fits (in partition order, for
  // thread-count determinism). A record lives in exactly one partition, so
  // with l_s survivors each averaged coefficient has sensitivity
  // Lambda / l_s — strictly larger than Lambda / l, and the Laplace scale
  // below grows to match, keeping the release epsilon2-DP. The budget
  // notionally spent on failed partitions is charged, never refunded.
  static obs::Counter* const fit_failures_counter =
      obs::MetricsRegistry::Global().GetCounter("mle.partition_fit_failures");
  linalg::PackedSymmetric avg(m);
  std::int64_t survivors = 0;
  std::int64_t failed = 0;
  Status first_failure = Status::OK();
  for (std::size_t ti = 0; ti < fits.size(); ++ti) {
    if (!fits[ti].ok()) {
      ++failed;
      if (first_failure.ok()) first_failure = fits[ti].status();
      continue;
    }
    avg.AddInPlace(*fits[ti]);
    ++survivors;
  }
  if (failed > 0) {
    fit_failures_counter->Add(failed);
    obs::Log(obs::LogLevel::kWarn, "mle.partition_fits_failed")
        .Field("failed", failed)
        .Field("partitions", l)
        .Field("max_failed", options.max_failed_partitions);
  }
  if (survivors == 0 || failed > options.max_failed_partitions) {
    return first_failure;  // Fail closed: nothing released.
  }
  avg.ScaleInPlace(1.0 / static_cast<double>(survivors));

  // Algorithm 2 step 3: Laplace noise with scale C(m,2) * Lambda / (l_s *
  // epsilon2), Lambda = 2 (diameter of [-1, 1]). Averaging over l_s disjoint
  // partitions reduces each coefficient's sensitivity to Lambda / l_s.
  const double num_pairs = static_cast<double>(m) * (m - 1) / 2.0;
  constexpr double kLambda = 2.0;
  const double scale =
      num_pairs * kLambda / (static_cast<double>(survivors) * epsilon2);

  // The noisy matrix is likewise built packed — one store per coefficient
  // — and expanded to dense form once, at the PSD-repair boundary.
  linalg::PackedSymmetric noisy_packed(m);
  for (std::size_t j = 0; j < m; ++j) noisy_packed.at(j, j) = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      double noisy = avg(j, k) + stats::SampleLaplace(rng, scale);
      noisy = std::clamp(noisy, -1.0, 1.0);
      noisy_packed.at(k, j) = noisy;
    }
  }
  linalg::Matrix p = noisy_packed.ToMatrix();

  MleEstimate est;
  est.num_partitions = l;
  est.rows_per_partition = b;
  est.rows_dropped = rows_dropped;
  est.failed_partitions = failed;
  est.laplace_scale = scale;
  est.repaired = !linalg::IsPositiveDefinite(p);
  if (est.repaired) repairs_counter->Increment();
  linalg::PsdRepairOptions repair_options;
  repair_options.num_threads = options.num_threads;
  DPC_ASSIGN_OR_RETURN(est.correlation,
                       linalg::EnsureCorrelationMatrix(p, repair_options));
  return est;
}

}  // namespace dpcopula::copula
