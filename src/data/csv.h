#ifndef DPCOPULA_DATA_CSV_H_
#define DPCOPULA_DATA_CSV_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "data/table.h"

namespace dpcopula::data {

/// The CSV codec (DESIGN.md §14). Every reader shares one grammar:
///  - A line ends at '\n' or at the end of the file; one '\r' right before
///    that end is dropped, so LF and CRLF files read the same. Blank data
///    lines are skipped but still count for line numbers.
///  - The first line is the header of attribute names.
///  - A line with k commas has k+1 cells.
///  - A data cell is optional blanks (space or tab), a number that
///    ParseDouble (common/parse_number.h) accepts whole, then optional
///    blanks. Any other cell is non-numeric; NaN and ±inf are non-finite.

/// The reader parses complete lines out of a buffer of this many bytes,
/// refilled one block at a time. A line longer than the buffer grows it.
inline constexpr std::size_t kCsvBlockBytes = std::size_t{1} << 20;

/// Bytes FormatCsvRow may write for a table of `num_columns` columns: each
/// cell is at most 20 characters ("-9223372036854775808") plus a comma.
constexpr std::size_t MaxCsvRowBytes(std::size_t num_columns) {
  return num_columns * 21;
}

/// Renders row `row` of `table` at `out` as comma-joined integers (each
/// cell is std::llround of its value) with no line terminator, and returns
/// the end of what it wrote. `out` must have MaxCsvRowBytes(num_columns)
/// bytes of room. WriteCsv and serve's SAMPLE renderer both use it, so a
/// CSV file and a SAMPLE reply render a table the same way.
char* FormatCsvRow(const Table& table, std::size_t row, char* out);

/// Writes `table` to `path` as CSV with a header row of attribute names and
/// FormatCsvRow rows. The write is crash-safe: content goes to
/// `<path>.tmp` and is fsync'ed before an atomic rename onto `path`, so an
/// interrupted write never leaves a truncated CSV behind.
Status WriteCsv(const Table& table, const std::string& path);

/// Knobs for CSV ingestion.
struct ReadCsvOptions {
  /// Maximum number of malformed/non-finite data rows to quarantine (drop
  /// and count) before the read fails. 0 is strict: the first bad row fails
  /// the whole read.
  std::size_t max_bad_rows = 0;
};

/// Per-reason tally of quarantined rows. The counts (and the line numbers
/// in error messages) are positions and structural defects only — cell
/// *values* never appear in statuses or logs.
struct CsvReadStats {
  std::size_t rows_kept = 0;
  std::size_t bad_rows = 0;            // Sum of the per-reason counts.
  std::size_t bad_too_many_cells = 0;
  std::size_t bad_too_few_cells = 0;
  std::size_t bad_non_numeric = 0;
  std::size_t bad_non_finite = 0;      // Cells parsed to NaN/inf.
  std::size_t bad_injected = 0;        // "csv.read.row" fail-point hits.
  std::size_t first_bad_line = 0;      // 1-based file line; 0 = none.
};

struct CsvReadResult {
  Table table;
  CsvReadStats stats;
};

/// Reads a CSV: a header row, then rows of numeric cells. Rows that fail
/// to parse (wrong arity, non-numeric or non-finite cells) are quarantined
/// and counted per reason, up to `options.max_bad_rows`; one bad row past
/// that fails the read. Domain sizes in the schema are inferred as
/// max(value)+1 per column unless a schema is supplied; a column whose
/// maximum is 2^62 or more fails the read instead.
Result<CsvReadResult> ReadCsvTolerant(const std::string& path,
                                      const ReadCsvOptions& options);
Result<CsvReadResult> ReadCsvTolerantWithSchema(const std::string& path,
                                                const Schema& schema,
                                                const ReadCsvOptions& options);

/// Strict reads: ReadCsvTolerant with max_bad_rows = 0.
Result<Table> ReadCsv(const std::string& path);
Result<Table> ReadCsvWithSchema(const std::string& path, const Schema& schema);

}  // namespace dpcopula::data

#endif  // DPCOPULA_DATA_CSV_H_
