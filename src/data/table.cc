#include "data/table.h"

#include <cmath>

namespace dpcopula::data {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attributes());
}

Table Table::Zeros(Schema schema, std::size_t num_rows) {
  Table t(std::move(schema));
  t.num_rows_ = num_rows;
  for (auto& col : t.columns_) col.assign(num_rows, 0.0);
  return t;
}

Result<Table> Table::FromColumns(Schema schema,
                                 std::vector<std::vector<double>> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument("FromColumns: arity mismatch");
  }
  Table t(std::move(schema));
  t.num_rows_ = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != t.num_rows_) {
      return Status::InvalidArgument("FromColumns: ragged column lengths");
    }
  }
  t.columns_ = std::move(columns);
  return t;
}

Status Table::AppendRow(const std::vector<double>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("AppendRow: arity mismatch");
  }
  for (std::size_t j = 0; j < row.size(); ++j) columns_[j].push_back(row[j]);
  ++num_rows_;
  return Status::OK();
}

Status Table::Validate() const {
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const auto domain = schema_.attribute(j).domain_size;
    for (double v : columns_[j]) {
      if (!(v >= 0.0) || v >= static_cast<double>(domain) ||
          v != std::floor(v)) {
        return Status::OutOfRange("column '" + schema_.attribute(j).name +
                                  "' has a value outside domain [0, " +
                                  std::to_string(domain) + ")");
      }
    }
  }
  return Status::OK();
}

Result<Table> Table::Project(const std::vector<std::size_t>& cols) const {
  std::vector<Attribute> attrs;
  attrs.reserve(cols.size());
  for (std::size_t c : cols) {
    if (c >= columns_.size()) {
      return Status::OutOfRange("Project: column index out of range");
    }
    attrs.push_back(schema_.attribute(c));
  }
  Table out{Schema(std::move(attrs))};
  out.num_rows_ = num_rows_;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    out.columns_[i] = columns_[cols[i]];
  }
  return out;
}

Status Table::Concat(const Table& other) {
  if (!(other.schema_ == schema_)) {
    return Status::InvalidArgument("Concat: schema mismatch");
  }
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    columns_[j].insert(columns_[j].end(), other.columns_[j].begin(),
                       other.columns_[j].end());
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

std::int64_t Table::RangeCount(const std::vector<double>& lo,
                               const std::vector<double>& hi) const {
  std::int64_t count = 0;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    bool inside = true;
    for (std::size_t j = 0; j < columns_.size() && inside; ++j) {
      const double v = columns_[j][r];
      inside = (v >= lo[j] && v <= hi[j]);
    }
    count += inside ? 1 : 0;
  }
  return count;
}

}  // namespace dpcopula::data
