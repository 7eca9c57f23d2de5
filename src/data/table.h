#ifndef DPCOPULA_DATA_TABLE_H_
#define DPCOPULA_DATA_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/schema.h"

namespace dpcopula::data {

/// Column-oriented in-memory table. Values are stored as doubles but are
/// integral points of the attribute's discrete domain [0, domain_size).
/// Column orientation matches every access pattern in this library (margins,
/// pairwise correlations, per-attribute transforms).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Creates a table with `num_rows` zero-initialized rows.
  static Table Zeros(Schema schema, std::size_t num_rows);

  /// Takes over `columns`, one per attribute of `schema`, all of one length.
  static Result<Table> FromColumns(Schema schema,
                                   std::vector<std::vector<double>> columns);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  const std::vector<double>& column(std::size_t j) const {
    return columns_[j];
  }
  std::vector<double>& mutable_column(std::size_t j) { return columns_[j]; }

  double at(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }
  void set(std::size_t row, std::size_t col, double v) {
    columns_[col][row] = v;
  }

  /// Appends one row; the span length must equal num_columns.
  Status AppendRow(const std::vector<double>& row);

  /// Validates that every value lies in its attribute's domain. The error
  /// names the column and the domain, never the offending value.
  Status Validate() const;

  /// New table containing only the listed columns (schema is projected too).
  Result<Table> Project(const std::vector<std::size_t>& cols) const;

  /// Appends all rows of `other` (schemas must match).
  Status Concat(const Table& other);

  /// Counts rows with lo[j] <= value_j <= hi[j] for all j — the paper's
  /// range-count query primitive.
  std::int64_t RangeCount(const std::vector<double>& lo,
                          const std::vector<double>& hi) const;

 private:
  Schema schema_;
  std::size_t num_rows_ = 0;
  std::vector<std::vector<double>> columns_;
};

}  // namespace dpcopula::data

#endif  // DPCOPULA_DATA_TABLE_H_
