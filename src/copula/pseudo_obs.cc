#include "copula/pseudo_obs.h"

#include <string>

namespace dpcopula::copula {

Result<std::vector<std::vector<double>>> PseudoObservations(
    const data::Table& table) {
  std::vector<stats::EmpiricalCdf> cdfs;
  cdfs.reserve(table.num_columns());
  for (std::size_t j = 0; j < table.num_columns(); ++j) {
    DPC_ASSIGN_OR_RETURN(
        stats::EmpiricalCdf cdf,
        stats::EmpiricalCdf::FromData(table.column(j),
                                      table.schema().attribute(j).domain_size));
    cdfs.push_back(std::move(cdf));
  }
  return PseudoObservationsWithCdfs(table, cdfs);
}

Result<std::vector<std::vector<double>>> PseudoObservationsWithCdfs(
    const data::Table& table, const std::vector<stats::EmpiricalCdf>& cdfs) {
  if (cdfs.size() != table.num_columns()) {
    return Status::InvalidArgument("PseudoObservations: one CDF per column");
  }
  std::vector<std::vector<double>> pseudo(table.num_columns());
  for (std::size_t j = 0; j < table.num_columns(); ++j) {
    const auto& col = table.column(j);
    if (col.size() != table.num_rows()) {
      return Status::InvalidArgument(
          "PseudoObservations: ragged column " + std::to_string(j));
    }
    // A CDF fitted from raw data (fitted_rows > 0) must be paired with the
    // column it was fitted on; a shorter or longer column means the caller
    // truncated or swapped data after fitting. CDFs built from noisy counts
    // report 0 and are exempt — they carry no row count by design.
    if (cdfs[j].fitted_rows() != 0 && cdfs[j].fitted_rows() != col.size()) {
      return Status::InvalidArgument(
          "PseudoObservations: column " + std::to_string(j) + " has " +
          std::to_string(col.size()) + " rows but its CDF was fitted on " +
          std::to_string(cdfs[j].fitted_rows()));
    }
    pseudo[j].resize(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      // Midpoint evaluation keeps discrete data centered within its
      // cumulative step and strictly inside (0, 1).
      pseudo[j][i] = cdfs[j].EvaluateMid(col[i]);
    }
  }
  return pseudo;
}

}  // namespace dpcopula::copula
