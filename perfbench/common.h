// Shared pieces of the end-to-end benchmark harness: argument parsing,
// clocks and resource readings, the in-memory span recorder, the workload
// inputs (tables, query sets, serve request mix) and one-line JSON output.
//
// Everything here sits outside the library: the harness calls the public
// functions of data, core, hist/marginals, copula, stats, serve and query
// and never reaches into their internals.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/dpcopula.h"
#include "data/table.h"
#include "query/workload.h"

namespace perfbench {

using dpcopula::Result;
using dpcopula::Status;

// ---- Command line -------------------------------------------------------

/// `--key value` pairs after the subcommand name.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& fallback) const;
  std::int64_t Int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t Seed(const std::string& key) const;
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

// ---- Clocks and resources ----------------------------------------------

/// steady_clock nanoseconds. CLOCK_MONOTONIC is system-wide on Linux, so
/// readings from different harness processes share one time axis.
std::int64_t NowNanos();
double NowSeconds();
/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();
/// Current and peak resident set size of this process, in MB.
double CurrentRssMb();
double PeakRssMb();
/// Size of a file in bytes (0 when it cannot be stat'ed).
std::uint64_t FileBytes(const std::string& path);

// ---- Seeds ---------------------------------------------------------------

/// splitmix64 of (seed, stream): independent child seeds for the input
/// table, each release, the model fit and each request of the serve mix.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// ---- Workload inputs ------------------------------------------------------

/// Worker threads of every release and fit: the `dpcopula` CLI default,
/// all hardware threads.
inline constexpr int kCliThreads = 0;

/// The `dpcopula` CLI defaults for one DPCopula run: epsilon 1, k = 8,
/// Kendall estimator, Gaussian family, kCliThreads.
dpcopula::core::DpCopulaOptions CliOptions();

inline constexpr std::size_t kCensusRows = 1'000'000;
inline constexpr std::size_t kWideRows = 50'000;
inline constexpr std::size_t kWideColumns = 32;
inline constexpr std::size_t kServeFitRows = 200'000;

/// Input table of a workload ("release_census", "release_wide" or
/// "serve_census"), a pure function of the seed.
Result<dpcopula::data::Table> MakeInputTable(const std::string& workload,
                                             std::uint64_t seed);

/// The fixed seeded range-count query set a workload is scored with, and
/// the sanity bound it is scored under. Census-shaped workloads use the
/// paper's random range queries over every attribute; release_wide uses
/// 2-D queries (a random attribute pair, full range on the rest), since
/// random 32-D boxes are empty.
std::vector<dpcopula::query::RangeQuery> QuerySet(
    const std::string& workload, const dpcopula::data::Schema& schema);
double SanityBound(const std::string& workload);

// ---- Serve request mix ------------------------------------------------------

inline constexpr int kServeConnections = 2;
inline constexpr int kSmallPerCycle = 19;
inline constexpr int kCyclesPerConnection = 4;
inline constexpr std::uint64_t kSmallRows = 100;
inline constexpr std::uint64_t kBulkRows = 20'000;
inline constexpr const char* kModelName = "model";

struct MixRequest {
  std::string line;  // Request line without the trailing LF.
  bool bulk = false;
  bool charged = false;
  std::uint64_t rows = 0;
  std::uint64_t seed = 0;
  bool binary = false;
};

/// The seeded request sequence one connection repeats in a closed loop:
/// kCyclesPerConnection cycles of 19 small requests (100 rows, csv; even
/// positions charged with epsilon > 0, odd positions free) followed by one
/// bulk request (20,000 rows, binary, charged).
std::vector<MixRequest> RequestMix(std::uint64_t seed, int connection);

// ---- Span recorder ----------------------------------------------------------

/// Spans recorded by the harness around each call it makes into a layer.
/// Kept in memory; written once, as Chrome trace-event JSON, when the
/// process ends. Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::string op;  // Release or request id shared by one operation.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Begin(const std::string& name, const std::string& op);
  void End(int id);
  const std::vector<Record>& records() const { return records_; }
  /// One Chrome trace "X" event per span, comma-separated, no brackets, so
  /// fragments from several processes concatenate into one trace file.
  Status WriteChromeFragment(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> open_;  // Stack of open span ids (parents).
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& op)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Output -------------------------------------------------------------------

/// Flat JSON object printed as one stdout line for the orchestrator.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value);
  JsonLine& Int(const std::string& key, std::int64_t value);
  JsonLine& Str(const std::string& key, const std::string& value);
  JsonLine& Bool(const std::string& key, bool value);
  std::string Render() const;
  void Print() const;

 private:
  std::string body_;
  void Key(const std::string& key);
};

/// Prints {"ok":false,"error":...} and returns exit code 1.
int FailJson(const std::string& what, const Status& status);

/// Adds the sums behind trace.coverage to `out`: span_child_ns (time of
/// all child spans) and span_parent_ns (time of the spans that have
/// children).
void AddCoverage(const Tracer& tracer, JsonLine* out);

/// Writes the tracer's spans to --trace-out when tracing is on.
Status WriteTrace(const Tracer& tracer, const Args& args);

/// Median of a copy of `values`, averaging the middle pair of an even
/// count (0 for an empty vector).
double Median(std::vector<double> values);
/// Nearest-rank quantile q in [0, 1] of a copy of `values`.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
