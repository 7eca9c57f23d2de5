#include "core/hybrid.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"

namespace dpcopula::core {

namespace {

// The input's row indices grouped by partition: rows[begin[p], begin[p+1])
// are partition p's rows, in input order.
struct RowRanges {
  std::vector<std::size_t> rows;
  std::vector<std::size_t> begin;
};

// One pass over the small columns gives every row its partition index, the
// mixed-radix number sum_t value_t * stride[t] (the last small attribute
// varies fastest); a stable counting sort then groups the row indices by
// that index. A small-column value outside its attribute's domain fails
// closed here with Table::Validate's message, which names the column and
// the domain, never the value.
Result<RowRanges> SortRowsByPartition(
    const data::Table& table, const std::vector<std::size_t>& small_cols,
    const std::vector<std::size_t>& stride, std::size_t num_partitions) {
  const std::size_t n = table.num_rows();
  std::vector<std::size_t> key(n, 0);
  for (std::size_t t = 0; t < small_cols.size(); ++t) {
    const data::Attribute& attr = table.schema().attribute(small_cols[t]);
    const auto domain = static_cast<double>(attr.domain_size);
    const std::vector<double>& col = table.column(small_cols[t]);
    for (std::size_t r = 0; r < n; ++r) {
      const double v = col[r];
      // Inside [0, domain) the cast truncates, so only an integral value
      // survives the round trip (cheaper than std::floor per cell).
      if (!(v >= 0.0 && v < domain) ||
          static_cast<double>(static_cast<std::size_t>(v)) != v) {
        return Status::OutOfRange("column '" + attr.name +
                                  "' has a value outside domain [0, " +
                                  std::to_string(attr.domain_size) + ")");
      }
      key[r] += static_cast<std::size_t>(v) * stride[t];
    }
  }
  RowRanges ranges;
  ranges.begin.assign(num_partitions + 1, 0);
  for (std::size_t k : key) ++ranges.begin[k + 1];
  for (std::size_t p = 0; p < num_partitions; ++p) {
    ranges.begin[p + 1] += ranges.begin[p];
  }
  std::vector<std::size_t> next(ranges.begin.begin(), ranges.begin.end() - 1);
  ranges.rows.resize(n);
  for (std::size_t r = 0; r < n; ++r) ranges.rows[next[key[r]]++] = r;
  return ranges;
}

// The listed rows of `cols`, as a table of `schema` (the projected schema).
Result<data::Table> GatherRows(const data::Table& table,
                               const std::vector<std::size_t>& cols,
                               const data::Schema& schema,
                               const std::size_t* rows, std::size_t count) {
  std::vector<std::vector<double>> columns(cols.size());
  for (std::size_t t = 0; t < cols.size(); ++t) {
    const std::vector<double>& src = table.column(cols[t]);
    columns[t].resize(count);
    for (std::size_t i = 0; i < count; ++i) columns[t][i] = src[rows[i]];
  }
  return data::Table::FromColumns(schema, std::move(columns));
}

}  // namespace

Result<HybridResult> SynthesizeHybrid(const data::Table& table,
                                      const HybridOptions& options, Rng* rng) {
  static obs::Counter* const partitions_synthesized =
      obs::MetricsRegistry::Global().GetCounter(
          "hybrid.partitions_synthesized");
  static obs::Counter* const partitions_skipped =
      obs::MetricsRegistry::Global().GetCounter("hybrid.partitions_skipped");
  static obs::Counter* const partitions_degraded =
      obs::MetricsRegistry::Global().GetCounter(
          "hybrid.partitions_degraded");
  static obs::Gauge* const noisy_count_gauge =
      obs::MetricsRegistry::Global().GetGauge("hybrid.last_noisy_count");
  static obs::Histogram* const partition_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hybrid.partition_seconds");
  obs::Span run_span("hybrid.synthesize");

  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("hybrid: epsilon must be > 0");
  }
  const auto& schema = table.schema();

  std::vector<std::size_t> small_cols, large_cols;
  std::vector<data::Attribute> large_attrs;
  for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
    if (schema.attribute(j).domain_size < kSmallDomainThreshold) {
      small_cols.push_back(j);
    } else {
      large_cols.push_back(j);
      large_attrs.push_back(schema.attribute(j));
    }
  }

  // No small-domain attributes: plain DPCopula with the full budget.
  if (small_cols.empty()) {
    obs::Log(obs::LogLevel::kInfo, "hybrid.degenerate_plain_dpcopula")
        .Field("epsilon", options.epsilon);
    DpCopulaOptions inner = options.inner;
    inner.epsilon = options.epsilon;
    inner.num_synthetic_rows = 0;
    inner.num_threads = options.num_threads;
    inner.allow_degraded_correlation = true;
    DPC_ASSIGN_OR_RETURN(SynthesisResult res, Synthesize(table, inner, rng));
    HybridResult out;
    out.synthetic = std::move(res.synthetic);
    out.num_partitions = 1;
    out.degraded_partitions = res.correlation_degraded ? 1 : 0;
    out.epsilon_copula = options.epsilon;
    out.budget = std::move(res.budget);
    return out;
  }

  // Partition p is the mixed-radix number whose digit t, of weight
  // stride[t], is the value of small column t; the last digit varies
  // fastest.
  std::vector<std::size_t> stride(small_cols.size());
  std::int64_t num_partitions = 1;
  for (std::size_t t = small_cols.size(); t-- > 0;) {
    const std::int64_t d = schema.attribute(small_cols[t]).domain_size;
    if (num_partitions > kMaxPartitions / d) {
      return Status::ResourceExhausted(
          "hybrid: small-domain partition count exceeds " +
          std::to_string(kMaxPartitions));
    }
    stride[t] = static_cast<std::size_t>(num_partitions);
    num_partitions *= d;
  }
  const auto partitions = static_cast<std::size_t>(num_partitions);
  const double factor = options.inner.oversample_factor;
  if (!(factor > 0.0)) {
    return Status::InvalidArgument("oversample_factor must be > 0");
  }
  // Step 1, before any charge or RNG draw: each partition's input rows.
  DPC_ASSIGN_OR_RETURN(
      const RowRanges ranges,
      SortRowsByPartition(table, small_cols, stride, partitions));

  const double eps_counts = options.epsilon * kPartitionCountFraction;
  const double eps_copula = options.epsilon - eps_counts;

  HybridResult out;
  out.num_partitions = num_partitions;
  out.epsilon_counts = eps_counts;
  out.epsilon_copula = eps_copula;

  // Top-level audit under parallel composition (Theorem 3.2): the
  // partitions are disjoint, so the noisy counts cost eps_counts once
  // overall (Laplace on a count, sensitivity 1) and the per-partition
  // DPCopula runs cost eps_copula once overall (each run keeps its own
  // sequential log internally and verifies it against eps_copula).
  out.budget = dp::BudgetAccountant(options.epsilon, "dpcopula-hybrid");
  DPC_RETURN_NOT_OK(out.budget.ChargeParallel(
      eps_counts, "hybrid:partition-counts", /*sensitivity=*/1.0));
  DPC_RETURN_NOT_OK(
      out.budget.ChargeParallel(eps_copula, "hybrid:partition-copula"));

  obs::Log(obs::LogLevel::kInfo, "hybrid.start")
      .Field("partitions", num_partitions)
      .Field("epsilon_counts", eps_counts)
      .Field("epsilon_copula", eps_copula)
      .Field("threads", options.num_threads);

  // One RNG per partition, pre-split in partition order. Each partition's
  // noise draws, fit and sampling consume only its own stream, so the
  // release is bit-identical for any thread count.
  std::vector<Rng> part_rngs;
  part_rngs.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    part_rngs.push_back(rng->Split());
  }

  // Step 2: every noisy partition count, up front and in partition order
  // (Lap(1/eps_counts); partitions are disjoint, so parallel composition
  // charges eps_counts once overall). Each count stays the first draw on
  // its partition's stream, ahead of that partition's fit. A partition
  // whose count rounds to <= 0 is skipped; any other gets an output block
  // of llround(n_synth * oversample_factor) rows, which its plan samples
  // into.
  struct Partition {
    std::size_t synth_rows = 0;  // n_synth; 0 when skipped.
    std::size_t out_begin = 0;
    std::size_t out_rows = 0;
    Status status = Status::OK();
    bool degraded = false;
  };
  std::vector<Partition> parts(partitions);
  const Status too_many_rows = Status::InvalidArgument(
      "synthetic row count exceeds the longest column a table can hold");
  std::size_t total_rows = 0;
  for (std::size_t p = 0; p < partitions; ++p) {
    const double noisy =
        static_cast<double>(ranges.begin[p + 1] - ranges.begin[p]) +
        stats::SampleLaplace(&part_rngs[p], 1.0 / eps_counts);
    noisy_count_gauge->Set(noisy);
    const double n_synth = std::round(noisy);
    if (!(n_synth >= 1.0)) continue;
    const double scaled = n_synth * factor;
    // llround is only defined for results a long long can hold.
    if (!(n_synth < 0x1p63 && scaled < 0x1p63)) return too_many_rows;
    Partition& part = parts[p];
    part.synth_rows = static_cast<std::size_t>(n_synth);
    part.out_begin = total_rows;
    part.out_rows = static_cast<std::size_t>(std::llround(scaled));
    if (part.out_rows > copula::kMaxSampleRows - total_rows) {
      return too_many_rows;
    }
    total_rows += part.out_rows;
  }

  // The whole release, allocated once; each worker writes only its
  // partition's block.
  out.synthetic = data::Table::Zeros(schema, total_rows);
  const data::Schema large_schema(std::move(large_attrs));

  // Workers run on pool threads, so they attach their spans to the run
  // span through an explicit handle rather than the thread-local stack.
  const obs::SpanId run_span_id = run_span.id();
  ParallelFor(
      0, partitions, /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          obs::Span part_span("hybrid.partition", p, run_span_id,
                              partition_seconds);
          // Key any fail point evaluated inside this partition's work —
          // including generic sites deep in its fit — to the partition
          // index, so a fault schedule fires on the same partitions for
          // every thread count. Every loop of the partition starts on this
          // thread, and their pool tasks evaluate only indexed sites.
          failpoint::ScopedContext failpoint_ctx(p);
          Partition& part = parts[p];
          if (DPC_FAILPOINT_AT("hybrid.partition.synthesize", p)) {
            part.status =
                failpoint::InjectedFault("hybrid.partition.synthesize");
            continue;
          }
          if (part.synth_rows == 0) {
            partitions_skipped->Increment();
            continue;
          }
          partitions_synthesized->Increment();

          // The block's small columns hold the partition's combination.
          // With no large column that is the whole release: a noisy
          // contingency table.
          for (std::size_t t = 0; t < small_cols.size(); ++t) {
            const std::size_t digit =
                p / stride[t] %
                static_cast<std::size_t>(
                    schema.attribute(small_cols[t]).domain_size);
            std::fill_n(
                out.synthetic.mutable_column(small_cols[t]).data() +
                    part.out_begin,
                part.out_rows, static_cast<double>(digit));
          }
          if (large_cols.empty()) continue;

          // Step 3: DPCopula on the large-domain columns of this
          // partition's rows: Fit, then Algorithm 3 on the same stream,
          // straight into the block's large columns.
          part.status = [&]() -> Status {
            DPC_ASSIGN_OR_RETURN(
                const data::Table input,
                GatherRows(table, large_cols, large_schema,
                           ranges.rows.data() + ranges.begin[p],
                           ranges.begin[p + 1] - ranges.begin[p]));
            DpCopulaOptions inner = options.inner;
            inner.epsilon = eps_copula;
            inner.num_synthetic_rows = part.synth_rows;
            inner.num_threads = options.num_threads;
            inner.allow_degraded_correlation = true;
            DPC_ASSIGN_OR_RETURN(const SynthesisResult fit,
                                 Fit(input, inner, &part_rngs[p]));
            part.degraded = fit.correlation_degraded;
            obs::Span sampling_span("sampling");
            DPC_ASSIGN_OR_RETURN(const copula::SamplingPlan plan,
                                 BuildSamplingPlan(fit.model));
            std::vector<double*> block(large_cols.size());
            for (std::size_t t = 0; t < large_cols.size(); ++t) {
              block[t] = out.synthetic.mutable_column(large_cols[t]).data() +
                         part.out_begin;
            }
            return plan.SampleInto(part.out_rows, &part_rngs[p],
                                   options.num_threads, block.data());
          }();
          if (part.status.ok() && part.degraded) {
            partitions_degraded->Increment();
            obs::Log(obs::LogLevel::kWarn, "hybrid.partition_degraded")
                .Field("partition", p);
          }
        }
      },
      options.num_threads);

  // The first failing partition in partition order decides the status, for
  // every thread count; nothing is released on failure.
  for (const Partition& part : parts) {
    DPC_RETURN_NOT_OK(part.status);
    if (part.synth_rows == 0) {
      ++out.num_skipped_partitions;
    } else if (part.degraded) {
      ++out.degraded_partitions;
    }
  }
  obs::Log(obs::LogLevel::kInfo, "hybrid.done")
      .Field("partitions", out.num_partitions)
      .Field("skipped", out.num_skipped_partitions)
      .Field("degraded", out.degraded_partitions)
      .Field("rows", out.synthetic.num_rows());
  return out;
}

}  // namespace dpcopula::core
