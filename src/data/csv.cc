#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/parse_number.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpcopula::data {

namespace {
// Registered at load, so every run report lists the stage (DESIGN.md §11).
obs::Histogram* const kCsvReadSeconds =
    obs::MetricsRegistry::Global().GetHistogram("profile.csv_read_seconds");
obs::Histogram* const kCsvWriteSeconds =
    obs::MetricsRegistry::Global().GetHistogram("profile.csv_write_seconds");
}  // namespace

char* FormatCsvRow(const Table& table, std::size_t row, char* out) {
  for (std::size_t j = 0; j < table.num_columns(); ++j) {
    if (j > 0) *out++ = ',';
    // Cells are integral points of a discrete domain; render them as
    // integers so the bytes are an exact function of the table.
    out = std::to_chars(out, out + 20, std::llround(table.at(row, j))).ptr;
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  obs::Span span("csv_write", kCsvWriteSeconds);
  return WriteFileAtomic(path, [&](std::ostream& out) -> Status {
    const auto& schema = table.schema();
    std::string header;
    for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j) header += ',';
      header += schema.attribute(j).name;
    }
    header += '\n';
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    // Rows are formatted into one block and handed to the stream whenever
    // the block passes kCsvBlockBytes; the slack holds the row that does.
    std::vector<char> block(kCsvBlockBytes +
                            MaxCsvRowBytes(table.num_columns()) + 1);
    std::size_t used = 0;
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      char* end = FormatCsvRow(table, r, block.data() + used);
      *end++ = '\n';
      used = static_cast<std::size_t>(end - block.data());
      if (used >= kCsvBlockBytes) {
        out.write(block.data(), static_cast<std::streamsize>(used));
        used = 0;
      }
    }
    out.write(block.data(), static_cast<std::streamsize>(used));
    if (!out) return Status::IOError("write failed: " + path);
    return Status::OK();
  });
}

namespace {

/// Why one data row failed to parse. Reasons are structural — they never
/// depend on what the offending cells contained.
enum class RowDefect {
  kNone,
  kTooManyCells,
  kTooFewCells,
  kNonNumeric,
  kNonFinite,
  kInjected,
};

const char* RowDefectName(RowDefect defect) {
  switch (defect) {
    case RowDefect::kNone: return "none";
    case RowDefect::kTooManyCells: return "too many cells";
    case RowDefect::kTooFewCells: return "too few cells";
    case RowDefect::kNonNumeric: return "non-numeric cell";
    case RowDefect::kNonFinite: return "non-finite cell";
    case RowDefect::kInjected: return "injected fault (csv.read.row)";
  }
  return "unknown";
}

/// Hands out the lines of a file without holding the file: complete lines
/// are cut out of a block buffer, and a line that runs past the filled part
/// moves to the buffer's front before the next block is read behind it. A
/// line longer than the whole buffer doubles it.
class LineReader {
 public:
  explicit LineReader(std::istream* in) : in_(in), buffer_(kCsvBlockBytes) {}

  /// The next line without its terminator ('\n', or the end of the file,
  /// and one '\r' before either). The view lives until the next call.
  /// False once the file is exhausted.
  bool Next(std::string_view* line) {
    while (true) {
      const char* const base = buffer_.data();
      const void* newline = std::memchr(base + begin_, '\n', end_ - begin_);
      std::size_t stop = end_;
      if (newline != nullptr) {
        stop = static_cast<std::size_t>(static_cast<const char*>(newline) -
                                        base);
      } else if (!eof_) {
        Refill();
        continue;
      } else if (begin_ == end_) {
        return false;
      }
      std::size_t length = stop - begin_;
      if (length > 0 && base[begin_ + length - 1] == '\r') --length;
      *line = std::string_view(base + begin_, length);
      begin_ = stop < end_ ? stop + 1 : end_;
      return true;
    }
  }

  /// True when a read failed (as opposed to reaching the end of the file).
  bool failed() const { return in_->bad(); }

 private:
  void Refill() {
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    in_->read(buffer_.data() + end_,
              static_cast<std::streamsize>(buffer_.size() - end_));
    end_ += static_cast<std::size_t>(in_->gcount());
    eof_ = !*in_;  // A short read means end of file (or a failed read).
  }

  std::istream* in_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  // First byte not yet handed out.
  std::size_t end_ = 0;    // One past the last byte read.
  bool eof_ = false;
};

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

/// One cell that is not a plain run of digits: blanks, a number, blanks.
RowDefect ParseCell(std::string_view cell, double* out) {
  while (!cell.empty() && IsBlank(cell.front())) cell.remove_prefix(1);
  while (!cell.empty() && IsBlank(cell.back())) cell.remove_suffix(1);
  if (!ParseDouble(cell, out)) return RowDefect::kNonNumeric;
  return std::isfinite(*out) ? RowDefect::kNone : RowDefect::kNonFinite;
}

/// Parses one non-blank data line into `cells[0, num_columns)`. Cells are
/// scanned left to right: a cell past the last column is too many and a
/// non-numeric cell ends the scan, while a non-finite cell is remembered
/// and the scan goes on to look for arity defects.
RowDefect ParseRow(std::string_view line, std::size_t num_columns,
                   double* cells) {
  RowDefect defect = RowDefect::kNone;
  for (std::size_t j = 0;; ++j) {
    if (j == num_columns) return RowDefect::kTooManyCells;
    // Fast path: 1 to 15 digits, then a comma or the end of the line. Such
    // an integer is below 2^53, so the double is exact and equal to what
    // ParseDouble would return.
    std::uint64_t value = 0;
    std::size_t cell_end = 0;
    while (cell_end < line.size() && cell_end < 15 &&
           static_cast<unsigned>(line[cell_end] - '0') < 10u) {
      value = 10 * value + static_cast<unsigned>(line[cell_end] - '0');
      ++cell_end;
    }
    if (cell_end > 0 && (cell_end == line.size() || line[cell_end] == ',')) {
      cells[j] = static_cast<double>(value);
    } else {
      cell_end = std::min(line.find(','), line.size());
      const RowDefect cell = ParseCell(line.substr(0, cell_end), &cells[j]);
      if (cell == RowDefect::kNonNumeric) return cell;
      if (cell != RowDefect::kNone) defect = cell;
    }
    if (cell_end == line.size()) {
      return j + 1 == num_columns ? defect : RowDefect::kTooFewCells;
    }
    line.remove_prefix(cell_end + 1);
  }
}

std::vector<std::string> SplitHeader(std::string_view line) {
  std::vector<std::string> names;
  while (true) {
    const std::size_t comma = line.find(',');
    names.emplace_back(line.substr(0, comma));
    if (comma == std::string_view::npos) return names;
    line.remove_prefix(comma + 1);
  }
}

/// Inferred domains are max(value)+1, which must fit an int64 domain size.
constexpr double kMaxInferredValue = 0x1p62;

Result<CsvReadResult> ReadCsvImpl(const std::string& path,
                                  const Schema* schema,
                                  const ReadCsvOptions& options) {
  obs::Span span("csv_read", kCsvReadSeconds);
  static obs::Counter* const quarantined_counter =
      obs::MetricsRegistry::Global().GetCounter("csv.rows_quarantined");

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  if (DPC_FAILPOINT("csv.read.open")) {
    return failpoint::InjectedFault("csv.read.open");
  }

  LineReader lines(&in);
  std::string_view line;
  if (!lines.Next(&line)) {
    if (lines.failed()) return Status::IOError("read failed: " + path);
    return Status::IOError("empty file: " + path);
  }
  if (line.empty()) return Status::IOError("no header columns: " + path);
  const std::vector<std::string> names = SplitHeader(line);
  if (schema != nullptr && schema->num_attributes() != names.size()) {
    return Status::InvalidArgument("schema arity does not match CSV header");
  }

  CsvReadStats stats;
  std::vector<std::vector<double>> cols(names.size());
  std::vector<double> cells(names.size());
  std::size_t line_no = 1;
  while (lines.Next(&line)) {
    ++line_no;
    if (line.empty()) continue;
    const RowDefect defect =
        DPC_FAILPOINT_AT("csv.read.row", /*row_index=*/line_no - 2)
            ? RowDefect::kInjected
            : ParseRow(line, names.size(), cells.data());
    if (defect == RowDefect::kNone) {
      for (std::size_t j = 0; j < names.size(); ++j) {
        cols[j].push_back(cells[j]);
      }
      ++stats.rows_kept;
      continue;
    }
    ++stats.bad_rows;
    if (stats.first_bad_line == 0) stats.first_bad_line = line_no;
    switch (defect) {
      case RowDefect::kNone: break;
      case RowDefect::kTooManyCells: ++stats.bad_too_many_cells; break;
      case RowDefect::kTooFewCells: ++stats.bad_too_few_cells; break;
      case RowDefect::kNonNumeric: ++stats.bad_non_numeric; break;
      case RowDefect::kNonFinite: ++stats.bad_non_finite; break;
      case RowDefect::kInjected: ++stats.bad_injected; break;
    }
    if (stats.bad_rows > options.max_bad_rows) {
      return Status::IOError(
          std::string(RowDefectName(defect)) + " at line " +
          std::to_string(line_no) + " (" + std::to_string(stats.bad_rows) +
          " bad rows exceeds max_bad_rows=" +
          std::to_string(options.max_bad_rows) + ")");
    }
    quarantined_counter->Increment();
  }
  if (lines.failed()) return Status::IOError("read failed: " + path);
  if (stats.bad_rows > 0) {
    obs::Log(obs::LogLevel::kWarn, "csv.rows_quarantined")
        .Field("path", path)
        .Field("bad_rows", stats.bad_rows)
        .Field("rows_kept", stats.rows_kept)
        .Field("first_bad_line", stats.first_bad_line);
  }

  Schema result_schema;
  if (schema != nullptr) {
    result_schema = *schema;
  } else {
    std::vector<Attribute> attrs;
    for (std::size_t j = 0; j < names.size(); ++j) {
      double mx = 0.0;
      for (double v : cols[j]) mx = std::max(mx, v);
      if (mx >= kMaxInferredValue) {
        return Status::InvalidArgument("column '" + names[j] +
                                       "' is too large to infer a domain");
      }
      attrs.push_back({names[j], static_cast<std::int64_t>(mx) + 1});
    }
    result_schema = Schema(std::move(attrs));
  }
  DPC_ASSIGN_OR_RETURN(Table table, Table::FromColumns(std::move(result_schema),
                                                       std::move(cols)));
  return CsvReadResult{std::move(table), stats};
}

}  // namespace

Result<CsvReadResult> ReadCsvTolerant(const std::string& path,
                                      const ReadCsvOptions& options) {
  return ReadCsvImpl(path, nullptr, options);
}

Result<CsvReadResult> ReadCsvTolerantWithSchema(
    const std::string& path, const Schema& schema,
    const ReadCsvOptions& options) {
  return ReadCsvImpl(path, &schema, options);
}

Result<Table> ReadCsv(const std::string& path) {
  DPC_ASSIGN_OR_RETURN(CsvReadResult read,
                       ReadCsvTolerant(path, ReadCsvOptions{}));
  return std::move(read.table);
}

Result<Table> ReadCsvWithSchema(const std::string& path,
                                const Schema& schema) {
  DPC_ASSIGN_OR_RETURN(
      CsvReadResult read,
      ReadCsvTolerantWithSchema(path, schema, ReadCsvOptions{}));
  return std::move(read.table);
}

}  // namespace dpcopula::data
