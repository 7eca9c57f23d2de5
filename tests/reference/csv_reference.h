// Test oracles for the CSV codec (data/csv.cc).
//
// ReadCsvReference reads a file one std::getline at a time and splits cells
// with std::string operations, under the grammar documented in data/csv.h:
// no block buffer, no digit fast path, no shared cell parser. It returns
// the same tables, CsvReadStats and statuses as the production reader, so
// a test can compare the two on any file. It has no fail points, logs or
// metrics.
//
// RenderSampleReference is the std::to_string loop serve's
// RenderSampleResponse used before it shared the CSV row formatter.
#ifndef DPCOPULA_TESTS_REFERENCE_CSV_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_CSV_REFERENCE_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/result.h"
#include "data/csv.h"
#include "data/table.h"

namespace dpcopula::reference {

enum class CellKind { kNumber, kNonNumeric, kNonFinite };

/// Blanks, a number std::from_chars consumes whole (after at most one '+'
/// that is not followed by '-'), blanks.
inline CellKind ParseCellReference(std::string cell, double* out) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!cell.empty() && blank(cell.back())) cell.pop_back();
  std::size_t start = 0;
  while (start < cell.size() && blank(cell[start])) ++start;
  cell.erase(0, start);
  if (!cell.empty() && cell[0] == '+') {
    if (cell.size() > 1 && cell[1] == '-') return CellKind::kNonNumeric;
    cell.erase(0, 1);
  }
  double value = 0.0;
  const char* const end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc() || ptr != end) return CellKind::kNonNumeric;
  *out = value;
  return std::isfinite(value) ? CellKind::kNumber : CellKind::kNonFinite;
}

inline std::vector<std::string> SplitAtCommas(const std::string& line) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    parts.push_back(line.substr(start, comma - start));
    if (comma == std::string::npos) return parts;
    start = comma + 1;
  }
}

inline Result<data::CsvReadResult> ReadCsvReference(
    const std::string& path, const data::Schema* schema,
    const data::ReadCsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  const auto next_line = [&]() -> bool {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };
  if (!next_line()) return Status::IOError("empty file: " + path);
  if (line.empty()) return Status::IOError("no header columns: " + path);
  const std::vector<std::string> names = SplitAtCommas(line);
  const std::size_t m = names.size();
  if (schema != nullptr && schema->num_attributes() != m) {
    return Status::InvalidArgument("schema arity does not match CSV header");
  }

  data::CsvReadStats stats;
  std::vector<std::vector<double>> cols(m);
  std::vector<double> row(m);
  std::size_t line_no = 1;
  while (next_line()) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitAtCommas(line);
    const char* defect = nullptr;
    std::size_t* counter = nullptr;
    bool non_finite = false;
    for (std::size_t j = 0; j < cells.size() && defect == nullptr; ++j) {
      if (j >= m) {
        defect = "too many cells";
        counter = &stats.bad_too_many_cells;
        break;
      }
      const CellKind kind = ParseCellReference(cells[j], &row[j]);
      if (kind == CellKind::kNonNumeric) {
        defect = "non-numeric cell";
        counter = &stats.bad_non_numeric;
      }
      non_finite = non_finite || kind == CellKind::kNonFinite;
    }
    if (defect == nullptr && cells.size() < m) {
      defect = "too few cells";
      counter = &stats.bad_too_few_cells;
    }
    if (defect == nullptr && non_finite) {
      defect = "non-finite cell";
      counter = &stats.bad_non_finite;
    }
    if (defect == nullptr) {
      for (std::size_t j = 0; j < m; ++j) cols[j].push_back(row[j]);
      ++stats.rows_kept;
      continue;
    }
    ++*counter;
    ++stats.bad_rows;
    if (stats.first_bad_line == 0) stats.first_bad_line = line_no;
    if (stats.bad_rows > options.max_bad_rows) {
      return Status::IOError(
          std::string(defect) + " at line " + std::to_string(line_no) +
          " (" + std::to_string(stats.bad_rows) +
          " bad rows exceeds max_bad_rows=" +
          std::to_string(options.max_bad_rows) + ")");
    }
  }

  data::Schema result_schema;
  if (schema != nullptr) {
    result_schema = *schema;
  } else {
    std::vector<data::Attribute> attrs;
    for (std::size_t j = 0; j < m; ++j) {
      const double mx =
          std::max(0.0, cols[j].empty()
                            ? 0.0
                            : *std::max_element(cols[j].begin(),
                                                cols[j].end()));
      if (mx >= 0x1p62) {
        return Status::InvalidArgument("column '" + names[j] +
                                       "' is too large to infer a domain");
      }
      attrs.push_back({names[j], static_cast<std::int64_t>(mx) + 1});
    }
    result_schema = data::Schema(std::move(attrs));
  }
  data::Table table = data::Table::Zeros(result_schema, stats.rows_kept);
  for (std::size_t j = 0; j < m; ++j) table.mutable_column(j) = cols[j];
  data::CsvReadResult result;
  result.table = std::move(table);
  result.stats = stats;
  return result;
}

/// The pre-codec SAMPLE renderer: one std::to_string per cell.
inline std::string RenderSampleReference(const data::Table& table,
                                         bool binary) {
  const std::size_t rows = table.num_rows();
  const std::size_t cols = table.num_columns();
  std::string out = "OK SAMPLE ";
  out += std::to_string(rows);
  out += ' ';
  out += std::to_string(cols);
  out += binary ? " binary\n" : " csv\n";
  std::string row_text;
  if (!binary) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (j > 0) out += ',';
      out += table.schema().attribute(j).name;
    }
    out += '\n';
  }
  for (std::size_t i = 0; i < rows; ++i) {
    row_text.clear();
    for (std::size_t j = 0; j < cols; ++j) {
      if (j > 0) row_text += ',';
      row_text += std::to_string(std::llround(table.at(i, j)));
    }
    if (binary) {
      const auto length = static_cast<std::uint32_t>(row_text.size());
      out += static_cast<char>(length & 0xff);
      out += static_cast<char>((length >> 8) & 0xff);
      out += static_cast<char>((length >> 16) & 0xff);
      out += static_cast<char>((length >> 24) & 0xff);
      out += row_text;
    } else {
      out += row_text;
      out += '\n';
    }
  }
  out += "END\n";
  return out;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_CSV_REFERENCE_H_
