#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/rng.h"
#include "data/census.h"
#include "data/generator.h"
#include "obs/json_writer.h"

namespace perfbench {

namespace json = dpcopula::obs::internal;

Result<Args> Args::Parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Status::InvalidArgument("expected --key value pairs, got '" +
                                     key + "'");
    }
    args.values_[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::Int(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

std::uint64_t Args::Seed(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Seed stream 0 of the workload seed makes the input table; release,
// fit and request seeds use other streams (see run.py and RequestMix).
constexpr std::uint64_t kTableStream = 0;
// The query sets do not depend on the workload seed: every run of a
// workload is scored on the same queries.
constexpr std::uint64_t kQuerySeed = 20140324;

// 32 attributes, margins alternating Gaussian and Zipf, domains 1000..1248
// (low thousands, none small enough for the hybrid partitioner), AR(1)
// dependence.
Result<dpcopula::data::Table> MakeWideTable(std::uint64_t seed) {
  using dpcopula::data::MarginSpec;
  std::vector<MarginSpec> specs;
  for (std::size_t j = 0; j < kWideColumns; ++j) {
    const std::int64_t domain = 1000 + 8 * static_cast<std::int64_t>(j);
    std::string name = "a";
    name += std::to_string(j);
    specs.push_back(j % 2 == 0 ? MarginSpec::Gaussian(name, domain)
                               : MarginSpec::Zipf(name, domain, 1.1));
  }
  dpcopula::Rng rng(seed);
  return dpcopula::data::GenerateGaussianDependent(
      specs, dpcopula::data::Ar1Correlation(kWideColumns, 0.6), kWideRows,
      &rng);
}

}  // namespace

dpcopula::core::DpCopulaOptions CliOptions() {
  dpcopula::core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.budget_ratio_k = 8.0;
  options.num_threads = kCliThreads;
  return options;
}

Result<dpcopula::data::Table> MakeInputTable(const std::string& workload,
                                             std::uint64_t seed) {
  const std::uint64_t table_seed = DeriveSeed(seed, kTableStream);
  if (workload == "release_wide") return MakeWideTable(table_seed);
  dpcopula::Rng rng(table_seed);
  if (workload == "release_census") {
    return dpcopula::data::GenerateBrazilCensus(kCensusRows, &rng);
  }
  if (workload == "serve_census") {
    return dpcopula::data::GenerateBrazilCensus(kServeFitRows, &rng);
  }
  return Status::InvalidArgument("unknown workload '" + workload + "'");
}

std::vector<dpcopula::query::RangeQuery> QuerySet(
    const std::string& workload, const dpcopula::data::Schema& schema) {
  dpcopula::Rng rng(kQuerySeed);
  if (workload != "release_wide") {
    // Table::RangeCount scans every row: 200 queries on the 1M-row census
    // table, 800 on the 200k-row table the served model is fitted on.
    return dpcopula::query::RandomWorkload(
        schema, workload == "release_census" ? 200 : 800, &rng);
  }
  const std::size_t m = schema.num_attributes();
  std::vector<dpcopula::query::RangeQuery> queries(2000);
  for (auto& q : queries) {
    for (std::size_t j = 0; j < m; ++j) {
      q.lo.push_back(0);
      q.hi.push_back(schema.attribute(j).domain_size - 1);
    }
    const auto a = static_cast<std::size_t>(rng.NextUint64Below(m));
    auto b = static_cast<std::size_t>(rng.NextUint64Below(m - 1));
    if (b >= a) ++b;
    for (std::size_t j : {a, b}) {
      const std::int64_t d = schema.attribute(j).domain_size;
      std::int64_t x = rng.NextInt64InRange(0, d - 1);
      std::int64_t y = rng.NextInt64InRange(0, d - 1);
      if (x > y) std::swap(x, y);
      q.lo[j] = x;
      q.hi[j] = y;
    }
  }
  return queries;
}

double SanityBound(const std::string& workload) {
  // Brazil census convention (10) for the census-shaped workloads. The
  // wide table takes a cardinality-relative bound, as the paper does for
  // the US census: 0.1% of its rows. With the paper's default of 1, 2-D
  // boxes holding a handful of rows dominated the mean and moved it by 14%
  // between seeds.
  return workload == "release_wide" ? 0.001 * kWideRows : 10.0;
}

std::vector<MixRequest> RequestMix(std::uint64_t seed, int connection) {
  std::vector<MixRequest> mix;
  char line[160];
  std::uint64_t stream = 1000 + 100 * static_cast<std::uint64_t>(connection);
  const std::string tenant = "tenant" + std::to_string(connection);
  for (int cycle = 0; cycle < kCyclesPerConnection; ++cycle) {
    for (int i = 0; i <= kSmallPerCycle; ++i) {
      MixRequest r;
      r.bulk = i == kSmallPerCycle;
      r.charged = r.bulk || i % 2 == 0;
      r.rows = r.bulk ? kBulkRows : kSmallRows;
      r.binary = r.bulk;
      r.seed = DeriveSeed(seed, stream++) >> 1;
      std::snprintf(line, sizeof(line), "SAMPLE %s %s %s %llu %llu %s",
                    kModelName, tenant.c_str(), r.charged ? "0.01" : "0",
                    static_cast<unsigned long long>(r.rows),
                    static_cast<unsigned long long>(r.seed),
                    r.binary ? "binary" : "csv");
      r.line = line;
      mix.push_back(std::move(r));
    }
  }
  return mix;
}

int Tracer::Begin(const std::string& name, const std::string& op) {
  Record r;
  r.name = name;
  r.op = op;
  r.id = static_cast<int>(records_.size());
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = NowNanos();
  records_.push_back(std::move(r));
  open_.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::End(int id) {
  records_[static_cast<std::size_t>(id)].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Status Tracer::WriteChromeFragment(const std::string& path) const {
  std::string out;
  const auto pid = static_cast<std::int64_t>(::getpid());
  for (const Record& r : records_) {
    if (!out.empty()) out += ",\n";
    out += "{\"name\":";
    json::AppendJsonString(&out, r.name);
    out += ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":";
    json::AppendJsonMicros(&out, r.start_ns);
    out += ",\"dur\":";
    json::AppendJsonMicros(&out, r.end_ns - r.start_ns);
    out += ",\"pid\":";
    json::AppendJsonInt(&out, pid);
    out += ",\"tid\":";
    json::AppendJsonInt(&out, pid);
    out += ",\"args\":{\"span\":";
    json::AppendJsonInt(&out, r.id);
    out += ",\"parent\":";
    json::AppendJsonInt(&out, r.parent);
    out += ",\"op\":";
    json::AppendJsonString(&out, r.op);
    out += "}}";
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Status::IOError("cannot write trace fragment " + path);
  return Status::OK();
}

void JsonLine::Key(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  json::AppendJsonString(&body_, key);
  body_ += ':';
}

JsonLine& JsonLine::Num(const std::string& key, double value) {
  Key(key);
  json::AppendJsonDouble(&body_, value);
  return *this;
}

JsonLine& JsonLine::Int(const std::string& key, std::int64_t value) {
  Key(key);
  json::AppendJsonInt(&body_, value);
  return *this;
}

JsonLine& JsonLine::Str(const std::string& key, const std::string& value) {
  Key(key);
  json::AppendJsonString(&body_, value);
  return *this;
}

JsonLine& JsonLine::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonLine::Render() const { return "{" + body_ + "}"; }

void JsonLine::Print() const {
  std::printf("%s\n", Render().c_str());
  std::fflush(stdout);
}

int FailJson(const std::string& what, const Status& status) {
  JsonLine().Bool("ok", false).Str("error", what + ": " + status.ToString()).Print();
  return 1;
}

void AddCoverage(const Tracer& tracer, JsonLine* out) {
  const auto& records = tracer.records();
  std::vector<std::int64_t> child_ns(records.size(), 0);
  std::vector<bool> has_child(records.size(), false);
  for (const auto& r : records) {
    if (r.parent < 0) continue;
    child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    has_child[static_cast<std::size_t>(r.parent)] = true;
  }
  std::int64_t children = 0;
  std::int64_t parents = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!has_child[i]) continue;
    children += child_ns[i];
    parents += records[i].end_ns - records[i].start_ns;
  }
  out->Int("span_child_ns", children).Int("span_parent_ns", parents);
}

Status WriteTrace(const Tracer& tracer, const Args& args) {
  if (!tracer.enabled()) return Status::OK();
  return tracer.WriteChromeFragment(args.Str("trace-out", ""));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace perfbench
