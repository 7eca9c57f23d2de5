// Test oracle for the partition loop of core::SynthesizeHybrid
// (core/hybrid.cc): the loop that predates row ranges. For every
// small-attribute combination it copies the whole input table, filters it
// once per small column, projects the large columns, runs DPCopula on them,
// rebuilds a full-width table of the partition with Table::Zeros and
// stitches the partitions together with Table::Concat. It pre-splits the
// same per-partition RNG streams and draws from each in the same order
// (noisy count first, then the inner run), so at oversample_factor 1 its
// release equals the production release bit for bit. It runs the
// partitions one after another; the production release is identical for
// every thread count. Only the multi-partition path is here: a table with
// no small-domain column goes to the production code's plain Synthesize
// call unchanged.
#ifndef DPCOPULA_TESTS_REFERENCE_HYBRID_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_HYBRID_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/failpoint.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "data/table.h"
#include "stats/distributions.h"

namespace dpcopula::reference {

/// Rows of `table` whose column `col` equals `value`, in input order.
inline data::Table FilterRows(const data::Table& table, std::size_t col,
                              double value) {
  std::vector<std::size_t> keep;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    if (table.column(col)[r] == value) keep.push_back(r);
  }
  std::vector<std::vector<double>> columns(table.num_columns());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    columns[j].reserve(keep.size());
    for (std::size_t r : keep) columns[j].push_back(table.column(j)[r]);
  }
  return data::Table::FromColumns(table.schema(), std::move(columns))
      .ValueOrDie();
}

/// Advances a mixed-radix counter over the small-attribute domains, last
/// digit fastest; returns false when exhausted.
inline bool AdvanceCombo(std::vector<std::int64_t>* combo,
                         const std::vector<std::int64_t>& radix) {
  for (std::size_t t = combo->size(); t-- > 0;) {
    if (++(*combo)[t] < radix[t]) return true;
    (*combo)[t] = 0;
  }
  return false;
}

/// Algorithm 6 on a table with at least one small-domain column, as the
/// copy-filter-concat loop ran it. Fills `synthetic`, the partition and
/// skip counts and `degraded_partitions`; the budget log is not built.
inline Result<core::HybridResult> SynthesizeHybrid(
    const data::Table& table, const core::HybridOptions& options, Rng* rng) {
  const data::Schema& schema = table.schema();
  std::vector<std::size_t> small_cols, large_cols;
  for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
    if (schema.attribute(j).domain_size < core::kSmallDomainThreshold) {
      small_cols.push_back(j);
    } else {
      large_cols.push_back(j);
    }
  }
  if (small_cols.empty()) {
    return Status::InvalidArgument("reference hybrid: no small column");
  }
  std::vector<std::int64_t> radix;
  for (std::size_t c : small_cols) {
    radix.push_back(schema.attribute(c).domain_size);
  }
  const double eps_counts = options.epsilon * core::kPartitionCountFraction;
  const double eps_copula = options.epsilon - eps_counts;

  std::vector<std::vector<std::int64_t>> combos;
  std::vector<std::int64_t> combo(small_cols.size(), 0);
  do {
    combos.push_back(combo);
  } while (AdvanceCombo(&combo, radix));
  std::vector<Rng> part_rngs;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    part_rngs.push_back(rng->Split());
  }

  core::HybridResult out;
  out.num_partitions = static_cast<std::int64_t>(combos.size());
  out.synthetic = data::Table(schema);
  for (std::size_t p = 0; p < combos.size(); ++p) {
    // Generic fail points inside the inner run key to the partition index,
    // as they do in production.
    failpoint::ScopedContext failpoint_ctx(p);
    const std::vector<std::int64_t>& c = combos[p];
    data::Table part = table;
    for (std::size_t t = 0; t < small_cols.size(); ++t) {
      part = FilterRows(part, small_cols[t], static_cast<double>(c[t]));
    }
    const double noisy = static_cast<double>(part.num_rows()) +
                         stats::SampleLaplace(&part_rngs[p], 1.0 / eps_counts);
    const auto n_synth = static_cast<std::int64_t>(std::llround(noisy));
    if (n_synth <= 0) {
      ++out.num_skipped_partitions;
      continue;
    }
    data::Table part_synth =
        data::Table::Zeros(schema, static_cast<std::size_t>(n_synth));
    for (std::size_t t = 0; t < small_cols.size(); ++t) {
      auto& col = part_synth.mutable_column(small_cols[t]);
      std::fill(col.begin(), col.end(), static_cast<double>(c[t]));
    }
    if (!large_cols.empty()) {
      DPC_ASSIGN_OR_RETURN(data::Table projected, part.Project(large_cols));
      core::DpCopulaOptions inner = options.inner;
      inner.epsilon = eps_copula;
      inner.num_synthetic_rows = static_cast<std::size_t>(n_synth);
      inner.allow_degraded_correlation = true;
      DPC_ASSIGN_OR_RETURN(core::SynthesisResult res,
                           core::Synthesize(projected, inner, &part_rngs[p]));
      if (res.correlation_degraded) ++out.degraded_partitions;
      for (std::size_t t = 0; t < large_cols.size(); ++t) {
        part_synth.mutable_column(large_cols[t]) = res.synthetic.column(t);
      }
    }
    DPC_RETURN_NOT_OK(out.synthetic.Concat(part_synth));
  }
  return out;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_HYBRID_REFERENCE_H_
