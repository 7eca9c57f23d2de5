// Serve-path subcommands: the model fit (the CLI's --model-out path), the
// server process (daemon defaults, an in-memory ledger), the closed-loop
// load generator with its wire checks, and the in-process per-layer replay
// of the request mix.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "baselines/range_estimator.h"
#include "commands.h"
#include "common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "copula/sampler.h"
#include "core/dpcopula.h"
#include "core/model_io.h"
#include "data/csv.h"
#include "linalg/cholesky.h"
#include "obs/log.h"
#include "query/evaluator.h"
#include "serve/ledger.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stats/empirical_cdf.h"

namespace perfbench {

namespace {

using dpcopula::data::Table;

// A ledger allowance no run of the mix can exhaust: nothing is refused.
// The served ledger is in memory. Persisted in the checkout (on ext4),
// every charge fsyncs under the ledger mutex both connections share, and
// the disk's latency swings moved the small p50 by a third between runs;
// the persisted charge is timed on its own in the traced replay instead.
constexpr double kAllowance = 1e12;
constexpr int kReadTimeoutMillis = 10'000;
// The load runs this long before it starts timing: a daemon runs long, and
// users do not pay its first requests' page faults and heap growth.
constexpr double kWarmupSeconds = 2.0;
// Traced and untraced passes of the in-process replay of the whole mix.
constexpr int kReplayPasses = 5;

// One client connection with an incremental reader for the line protocol
// (status line; SAMPLE bodies in csv or length-prefixed binary; "END").
class Connection {
 public:
  static Result<std::unique_ptr<Connection>> Open(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::IOError("connect() failed");
    }
    return std::unique_ptr<Connection>(new Connection(fd));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Send(const std::string& line) {
    const std::string bytes = line + "\n";
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("send failed");
      sent += static_cast<std::size_t>(n);
    }
    return Status::OK();
  }

  /// Reads exactly one response into *response. An "ERR" status line, a
  /// malformed body, a closed connection or a 10 s stall is an error.
  Status ReadResponse(std::string* response) {
    std::size_t end = 0;
    DPC_RETURN_NOT_OK(LineEnd(0, &end));
    const std::string status(buffer_.data(), end);
    if (status.rfind("OK SAMPLE ", 0) == 0) {
      unsigned long long rows = 0, cols = 0;
      char format[16] = {0};
      if (std::sscanf(status.c_str(), "OK SAMPLE %llu %llu %15s", &rows,
                      &cols, format) != 3) {
        return Status::IOError("malformed SAMPLE status line");
      }
      if (std::strcmp(format, "csv") == 0) {
        for (unsigned long long i = 0; i <= rows; ++i) {  // Header + rows.
          DPC_RETURN_NOT_OK(LineEnd(end, &end));
        }
      } else {
        for (unsigned long long i = 0; i < rows; ++i) {
          DPC_RETURN_NOT_OK(Need(end + 4));
          const auto* p =
              reinterpret_cast<const unsigned char*>(buffer_.data() + end);
          const std::size_t length = p[0] | (p[1] << 8) | (p[2] << 16) |
                                     (static_cast<std::size_t>(p[3]) << 24);
          end += 4 + length;
        }
      }
      const std::size_t body_end = end;
      DPC_RETURN_NOT_OK(LineEnd(body_end, &end));
      if (buffer_.compare(body_end, end - body_end, "END\n") != 0) {
        return Status::IOError("SAMPLE response without END");
      }
    } else if (status.rfind("ERR", 0) == 0) {
      buffer_.erase(0, end);
      return Status::IOError("server answered " + status.substr(0, 60));
    }
    response->assign(buffer_, 0, end);
    buffer_.erase(0, end);
    return Status::OK();
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  // Receives until the buffer holds at least `size` bytes.
  Status Need(std::size_t size) {
    char chunk[65536];
    while (buffer_.size() < size) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kReadTimeoutMillis);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return Status::IOError("response timed out");
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    return Status::OK();
  }

  // Sets *end to one past the next '\n' at or after `from`.
  Status LineEnd(std::size_t from, std::size_t* end) {
    while (true) {
      const std::size_t nl = buffer_.find('\n', from);
      if (nl != std::string::npos) {
        *end = nl + 1;
        return Status::OK();
      }
      from = buffer_.size();
      DPC_RETURN_NOT_OK(Need(buffer_.size() + 1));
    }
  }

  int fd_;
  std::string buffer_;
};

// Cells of a SAMPLE response, row-major, parsed from its csv or binary
// body. Used to compare wire rows with in-process rows cell by cell.
Result<Table> ParseSampleRows(const std::string& response,
                              const dpcopula::data::Schema& schema) {
  unsigned long long rows = 0, cols = 0;
  char format[16] = {0};
  if (std::sscanf(response.c_str(), "OK SAMPLE %llu %llu %15s", &rows, &cols,
                  format) != 3 ||
      cols != schema.num_attributes()) {
    return Status::IOError("bad SAMPLE status line");
  }
  const bool binary = std::strcmp(format, "binary") == 0;
  std::size_t pos = response.find('\n') + 1;
  if (!binary) pos = response.find('\n', pos) + 1;  // Skip the header.
  Table table = Table::Zeros(schema, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t end = 0;
    if (binary) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(response.data() + pos);
      const std::size_t length = p[0] | (p[1] << 8) | (p[2] << 16) |
                                 (static_cast<std::size_t>(p[3]) << 24);
      pos += 4;
      end = pos + length;
    } else {
      end = response.find('\n', pos);
    }
    if (end == std::string::npos || end > response.size()) {
      return Status::IOError("truncated SAMPLE body");
    }
    const char* cursor = response.data() + pos;
    const char* row_end = response.data() + end;
    for (std::size_t j = 0; j < cols; ++j) {
      long long value = 0;
      auto [next, ec] = std::from_chars(cursor, row_end, value);
      if (ec != std::errc() || (j + 1 < cols && *next != ',')) {
        return Status::IOError("malformed SAMPLE row");
      }
      table.set(r, j, static_cast<double>(value));
      cursor = next + 1;  // Skip the ','.
    }
    pos = binary ? end : end + 1;
  }
  return table;
}

bool SameCells(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

Result<std::vector<dpcopula::stats::EmpiricalCdf>> ModelCdfs(
    const dpcopula::core::DpCopulaModel& model) {
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
  for (const auto& counts : model.marginal_counts) {
    DPC_ASSIGN_OR_RETURN(auto cdf,
                         dpcopula::stats::EmpiricalCdf::FromCounts(counts));
    cdfs.push_back(std::move(cdf));
  }
  return cdfs;
}

// Scores the pooled rows of every distinct bulk request, in mix order,
// against the table the model was fitted on, counts scaled by fitted rows /
// pooled rows. Pooling keeps the score about the model (its DP noise, fixed
// by the fit seed) rather than one request's sampling noise.
Result<double> ScorePooled(std::vector<Table> bulks,
                           const std::string& original_path) {
  Table pooled = std::move(bulks.front());
  for (std::size_t i = 1; i < bulks.size(); ++i) {
    DPC_RETURN_NOT_OK(pooled.Concat(bulks[i]));
  }
  DPC_ASSIGN_OR_RETURN(Table original, dpcopula::data::ReadCsv(original_path));
  const auto queries = QuerySet("serve_census", original.schema());
  DPC_ASSIGN_OR_RETURN(auto truth,
                       dpcopula::query::ComputeTrueAnswers(original, queries));
  const double scale = static_cast<double>(original.num_rows()) /
                       static_cast<double>(pooled.num_rows());
  dpcopula::baselines::ScaledTableEstimator estimator(std::move(pooled), scale,
                                                      "serve");
  DPC_ASSIGN_OR_RETURN(auto eval, dpcopula::query::EvaluateWorkloadWithTruth(
                                      truth, estimator, queries,
                                      SanityBound("serve_census")));
  return eval.mean_relative_error;
}

std::vector<MixRequest> FullMix(std::uint64_t seed) {
  std::vector<MixRequest> all;
  for (int c = 0; c < kServeConnections; ++c) {
    auto mix = RequestMix(seed, c);
    all.insert(all.end(), mix.begin(), mix.end());
  }
  return all;
}

}  // namespace

int RunFit(const Args& args) {
  const std::string input = args.Str("input", "");
  Tracer tracer(args.Has("trace-out"));
  double read_s = 0, synth_s = 0, save_s = 0, cpu_s = 0;
  double rss_before = 0, rss_peak = 0;
  std::size_t rows = 0;
  {
    ScopedSpan fit(&tracer, "fit", "fit");
    double t = NowSeconds();
    Table table;
    {
      ScopedSpan span(&tracer, "data.read_csv", "fit");
      auto read = dpcopula::data::ReadCsv(input);
      if (!read.ok()) return FailJson("read", read.status());
      table = std::move(read).ValueOrDie();
    }
    read_s = NowSeconds() - t;
    rows = table.num_rows();
    const dpcopula::core::DpCopulaOptions options = CliOptions();
    dpcopula::Rng rng(args.Seed("seed"));
    rss_before = CurrentRssMb();
    const double cpu0 = ProcessCpuSeconds();
    t = NowSeconds();
    dpcopula::core::DpCopulaModel model;
    {
      ScopedSpan span(&tracer, "core.synthesize", "fit");
      auto result = dpcopula::core::Synthesize(table, options, &rng);
      if (!result.ok()) return FailJson("synthesize", result.status());
      model = dpcopula::core::ModelFromSynthesis(table.schema(), *result);
    }
    synth_s = NowSeconds() - t;
    cpu_s = ProcessCpuSeconds() - cpu0;
    rss_peak = PeakRssMb();
    t = NowSeconds();
    {
      ScopedSpan span(&tracer, "core.save_model", "fit");
      Status saved = dpcopula::core::SaveModel(model, args.Str("model", ""));
      if (!saved.ok()) return FailJson("save", saved);
    }
    save_s = NowSeconds() - t;
  }
  if (Status s = WriteTrace(tracer, args); !s.ok()) return FailJson("trace", s);
  JsonLine out;
  out.Bool("ok", true)
      .Num("read_s", read_s)
      .Num("synth_s", synth_s)
      .Num("save_s", save_s)
      .Num("cpu_s", cpu_s)
      .Int("threads", dpcopula::ResolveNumThreads(kCliThreads))
      .Num("rss_before_mb", rss_before)
      .Num("rss_peak_mb", rss_peak)
      .Int("rows", static_cast<std::int64_t>(rows))
      .Int("in_bytes", static_cast<std::int64_t>(FileBytes(input)));
  if (tracer.enabled()) AddCoverage(tracer, &out);
  out.Print();
  return 0;
}

int RunServer(const Args& args) {
  dpcopula::obs::ObsConfig obs_config;  // Daemon default: log level info.
  obs_config.log_level = dpcopula::obs::LogLevel::kInfo;
  dpcopula::obs::SetObsConfig(obs_config);
  dpcopula::serve::ServerOptions options;  // 2 workers, sample_threads 1.
  // An in-memory ledger: no persist_path (see kAllowance and NOTES.md).
  options.ledger.default_allowance = kAllowance;
  auto created = dpcopula::serve::Server::Create(options);
  if (!created.ok()) return FailJson("start", created.status());
  std::unique_ptr<dpcopula::serve::Server> server = created.MoveValueUnsafe();
  Status added = server->AddModel(kModelName, args.Str("model", ""));
  if (!added.ok()) return FailJson("model", added);
  std::printf("PORT %d\n", server->port());
  std::fflush(stdout);
  // Serve until the orchestrator writes STOP or closes stdin.
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "STOP", 4) == 0) break;
  }
  const auto stats = server->GetStats();
  server->Shutdown();
  JsonLine()
      .Bool("ok", true)
      .Int("requests", static_cast<std::int64_t>(stats.requests))
      .Int("samples_ok", static_cast<std::int64_t>(stats.samples_ok))
      .Int("rows_sampled", static_cast<std::int64_t>(stats.rows_sampled))
      .Int("errors", static_cast<std::int64_t>(stats.errors))
      .Int("busy_rejections",
           static_cast<std::int64_t>(stats.connections_rejected_busy))
      .Int("budget_rejections",
           static_cast<std::int64_t>(stats.budget_rejections))
      .Num("peak_rss_mb", PeakRssMb())
      .Print();
  return 0;
}

int RunLoad(const Args& args) {
  const std::uint64_t seed = args.Seed("seed");
  const double seconds = static_cast<double>(args.Int("seconds", 10));
  const int pings = static_cast<int>(args.Int("pings", 0));
  auto model = dpcopula::core::LoadModel(args.Str("model", ""));
  if (!model.ok()) return FailJson("model", model.status());
  auto cdfs = ModelCdfs(*model);
  if (!cdfs.ok()) return FailJson("cdfs", cdfs.status());

  // Expected replies, computed in-process before any load: the sampler's
  // rows for each (model, seed, rows), rendered as the server renders them.
  struct Expected {
    Table table;
    std::string bytes;
  };
  std::vector<std::vector<MixRequest>> mixes;
  std::vector<std::vector<Expected>> expected(kServeConnections);
  for (int c = 0; c < kServeConnections; ++c) {
    mixes.push_back(RequestMix(seed, c));
    for (const MixRequest& r : mixes.back()) {
      dpcopula::Rng rng(r.seed);
      auto table = dpcopula::copula::SampleSyntheticData(
          model->schema, *cdfs, model->correlation, r.rows, &rng, 1);
      if (!table.ok()) return FailJson("expected sample", table.status());
      std::string bytes =
          dpcopula::serve::RenderSampleResponse(*table, r.binary);
      expected[static_cast<std::size_t>(c)].push_back(
          {std::move(table).ValueOrDie(), std::move(bytes)});
    }
  }

  struct ConnectionResult {
    std::vector<double> small_ms, bulk_ms, ping_us;
    std::vector<Table> bulk_tables;  // Wire rows of each distinct bulk.
    // Rows received per second over each measured cycle of the mix (19
    // small requests and one bulk, all answered correctly).
    std::vector<double> cycle_rows_per_s;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::uint64_t rows = 0;
    std::string error;
    double end_s = 0;
  };
  std::vector<ConnectionResult> results(kServeConnections);
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kServeConnections; ++c) {
    auto opened = Connection::Open(static_cast<int>(args.Int("port", 0)));
    if (!opened.ok()) return FailJson("connect", opened.status());
    connections.push_back(opened.MoveValueUnsafe());
  }
  const double start_s = NowSeconds();
  const double measure_s = start_s + kWarmupSeconds;
  const double deadline = measure_s + seconds;
  std::vector<std::thread> workers;
  for (int c = 0; c < kServeConnections; ++c) {
    workers.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      ConnectionResult& out = results[ci];
      Connection& conn = *connections[ci];
      const auto& mix = mixes[ci];
      std::string response;
      std::int64_t cycle_start_ns = 0;
      std::uint64_t cycle_rows = 0;
      bool cycle_ok = false;
      auto fail = [&](const std::string& why) {
        ++out.failed;
        cycle_ok = false;
        if (out.error.empty()) out.error = why;
      };
      // The first pass over the sequence always completes, so every run
      // checks and scores the same requests. Every reply is checked; only
      // requests sent after the warm-up are timed and counted.
      for (std::size_t i = 0; i < mix.size() || NowSeconds() < deadline;
           ++i) {
        const std::size_t k = i % mix.size();
        const MixRequest& r = mix[k];
        ++out.attempted;
        const std::int64_t t0 = NowNanos();
        const bool measured = static_cast<double>(t0) * 1e-9 >= measure_s;
        if (k % (kSmallPerCycle + 1) == 0) {
          cycle_start_ns = t0;
          cycle_rows = 0;
          cycle_ok = measured;
        }
        Status io = conn.Send(r.line);
        if (io.ok()) io = conn.ReadResponse(&response);
        const std::int64_t t1 = NowNanos();
        const double ms = static_cast<double>(t1 - t0) * 1e-6;
        if (!io.ok()) {
          fail(io.ToString());
          if (io.ToString().find("server answered") == std::string::npos) {
            break;  // The connection is unusable.
          }
          continue;
        }
        const Expected& want = expected[ci][k];
        if (response != want.bytes) {
          fail("reply differs from the in-process sample");
          continue;
        }
        if (measured) {
          (r.bulk ? out.bulk_ms : out.small_ms).push_back(ms);
          out.rows += r.rows;
          cycle_rows += r.rows;
          if (r.bulk && cycle_ok) {
            out.cycle_rows_per_s.push_back(
                static_cast<double>(cycle_rows) /
                (static_cast<double>(t1 - cycle_start_ns) * 1e-9));
          }
        }
        if (i < mix.size()) {
          auto wire = ParseSampleRows(response, model->schema);
          if (!wire.ok() || !SameCells(*wire, want.table)) {
            fail("wire rows differ from the in-process rows");
          } else if (r.bulk) {
            out.bulk_tables.push_back(std::move(wire).ValueOrDie());
          }
        }
      }
      out.end_s = NowSeconds();
      for (int p = 0; p < pings && out.error.empty(); ++p) {
        const std::int64_t t0 = NowNanos();
        Status io = conn.Send("PING");
        if (io.ok()) io = conn.ReadResponse(&response);
        if (!io.ok() || response != "OK PONG\n") {
          fail("PING failed");
          break;
        }
        out.ping_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
      }
    });
  }
  for (auto& w : workers) w.join();

  ConnectionResult all;
  double end_s = measure_s;
  for (auto& r : results) {
    all.cycle_rows_per_s.insert(all.cycle_rows_per_s.end(),
                                r.cycle_rows_per_s.begin(),
                                r.cycle_rows_per_s.end());
    all.small_ms.insert(all.small_ms.end(), r.small_ms.begin(),
                        r.small_ms.end());
    all.bulk_ms.insert(all.bulk_ms.end(), r.bulk_ms.begin(), r.bulk_ms.end());
    all.ping_us.insert(all.ping_us.end(), r.ping_us.begin(), r.ping_us.end());
    for (auto& t : r.bulk_tables) all.bulk_tables.push_back(std::move(t));
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.rows += r.rows;
    if (all.error.empty()) all.error = r.error;
    end_s = std::max(end_s, r.end_s);
  }
  const double wall_s = end_s - measure_s;

  // Quality, from the wire rows of the first pass, when --original names the
  // fitted table. A missing bulk reply was already counted as a failure; the
  // run then reports no score.
  const auto expected_bulks =
      static_cast<std::size_t>(kServeConnections * kCyclesPerConnection);
  double rel_error = 0.0;
  if (!args.Has("original")) {
    // The traced modes time the layers only.
  } else if (all.bulk_tables.size() == expected_bulks) {
    auto scored = ScorePooled(std::move(all.bulk_tables),
                              args.Str("original", ""));
    if (!scored.ok()) return FailJson("quality", scored.status());
    rel_error = *scored;
  } else {
    all.failed = std::max<std::int64_t>(all.failed, 1);
  }

  JsonLine()
      .Bool("ok", true)
      .Int("attempted", all.attempted)
      .Int("failed", all.failed)
      .Str("error", all.error)
      .Int("small_count", static_cast<std::int64_t>(all.small_ms.size()))
      .Num("small_p50_ms", Median(all.small_ms))
      .Num("small_p99_ms", Quantile(all.small_ms, 0.99))
      .Int("bulk_count", static_cast<std::int64_t>(all.bulk_ms.size()))
      .Num("bulk_p50_ms", Median(all.bulk_ms))
      .Num("bulk_p99_ms", Quantile(all.bulk_ms, 0.99))
      .Int("rows", static_cast<std::int64_t>(all.rows))
      .Num("wall_s", wall_s)
      // The connections run side by side: the typical cycle's rate, once
      // per connection. The total over the phase integrates every stall
      // on the shared host as well; it is printed beside it.
      .Num("rows_per_s",
           kServeConnections * Median(all.cycle_rows_per_s))
      .Num("total_rows_per_s", static_cast<double>(all.rows) / wall_s)
      .Num("ping_p50_us", Median(all.ping_us))
      .Num("rel_error", rel_error)
      .Print();
  return 0;
}

int RunServeLayers(const Args& args) {
  namespace serve = dpcopula::serve;
  serve::ModelRegistry registry;
  if (Status s = registry.Add(kModelName, args.Str("model", "")); !s.ok()) {
    return FailJson("model", s);
  }
  // The served configuration (in memory), and the same ledger persisted to
  // --ledger, whose charges are timed beside each request.
  serve::TenantLedger::Options ledger_options;
  ledger_options.default_allowance = kAllowance;
  auto ledger = serve::TenantLedger::Open(ledger_options);
  if (!ledger.ok()) return FailJson("ledger", ledger.status());
  ledger_options.persist_path = args.Str("ledger", "");
  auto persisted = serve::TenantLedger::Open(ledger_options);
  if (!persisted.ok()) return FailJson("ledger", persisted.status());
  auto served = registry.Get(kModelName);
  if (!served.ok()) return FailJson("registry", served.status());
  const std::shared_ptr<const serve::ServedModel> model = *served;
  const std::vector<MixRequest> mix = FullMix(args.Seed("seed"));

  // Per-request layer times of the traced passes, by class.
  struct Layers {
    std::vector<double> parse, get, charge, persist, plan, sample, render,
        bytes, service;
  };
  Layers small, bulk;
  std::vector<double> traced_pass_s, untraced_pass_s;
  Tracer tracer(true);
  Tracer off(false);

  auto pass = [&](Tracer* t, int rep, Layers* sink_small,
                  Layers* sink_bulk) -> Status {
    const double start = NowSeconds();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const MixRequest& r = mix[i];
      const std::string op =
          "rep" + std::to_string(rep) + "-req" + std::to_string(i);
      double us[7] = {0};
      std::size_t bytes = 0;
      auto timed = [&](int slot, const char* name, auto&& fn) -> Status {
        ScopedSpan span(t, name, op);
        const std::int64_t t0 = NowNanos();
        Status s = fn();
        us[slot] = static_cast<double>(NowNanos() - t0) * 1e-3;
        return s;
      };
      // Beside the request span: the charge a persisted ledger would make,
      // and the sampling plan the sampler derives per call (Cholesky factor
      // and one inverse-CDF table per column), which SampleSyntheticData
      // builds again inside the request.
      DPC_RETURN_NOT_OK(timed(6, "serve.ledger_persist", [&]() -> Status {
        return persisted->Charge("tenant" + std::to_string(i % 2),
                                 r.charged ? 0.01 : 0.0, "serve:sample");
      }));
      DPC_RETURN_NOT_OK(timed(3, "copula.plan_build", [&]() -> Status {
        DPC_ASSIGN_OR_RETURN(
            auto chol,
            dpcopula::linalg::CholeskyDecompose(model->model.correlation));
        std::vector<dpcopula::stats::InverseCdfTable> tables;
        for (const auto& cdf : model->cdfs) tables.emplace_back(cdf);
        return chol.rows() > 0 ? Status::OK()
                               : Status::Internal("empty factor");
      }));
      ScopedSpan request_span(t, "serve.request", op);
      serve::Request request;
      std::shared_ptr<const serve::ServedModel> found;
      Table sampled;
      DPC_RETURN_NOT_OK(timed(0, "serve.parse", [&]() -> Status {
        DPC_ASSIGN_OR_RETURN(request, serve::ParseRequestLine(r.line));
        return Status::OK();
      }));
      DPC_RETURN_NOT_OK(timed(1, "serve.registry_get", [&]() -> Status {
        DPC_ASSIGN_OR_RETURN(found, registry.Get(request.model));
        return Status::OK();
      }));
      DPC_RETURN_NOT_OK(timed(2, "serve.ledger_charge", [&]() -> Status {
        return ledger->Charge(request.tenant, request.epsilon,
                              "serve:sample:" + request.model);
      }));
      DPC_RETURN_NOT_OK(timed(4, "copula.sample", [&]() -> Status {
        dpcopula::Rng rng(request.seed);
        DPC_ASSIGN_OR_RETURN(
            sampled, dpcopula::copula::SampleSyntheticData(
                         found->model.schema, found->cdfs,
                         found->model.correlation, request.rows, &rng, 1));
        return Status::OK();
      }));
      DPC_RETURN_NOT_OK(timed(5, "serve.render", [&]() -> Status {
        bytes = serve::RenderSampleResponse(sampled, request.binary).size();
        return Status::OK();
      }));
      Layers* sink = r.bulk ? sink_bulk : sink_small;
      if (sink == nullptr) continue;
      sink->parse.push_back(us[0]);
      sink->get.push_back(us[1]);
      if (r.charged) {
        sink->charge.push_back(us[2]);
        sink->persist.push_back(us[6]);
      }
      sink->plan.push_back(us[3]);
      sink->sample.push_back(us[4]);
      sink->render.push_back(us[5]);
      sink->bytes.push_back(static_cast<double>(bytes));
      sink->service.push_back(us[0] + us[1] + us[2] + us[4] + us[5]);
    }
    (t->enabled() ? traced_pass_s : untraced_pass_s)
        .push_back(NowSeconds() - start);
    return Status::OK();
  };
  for (int rep = 0; rep < kReplayPasses; ++rep) {
    // Alternate which pass goes first so drift within the run cancels.
    Status a = rep % 2 == 0 ? pass(&off, rep, nullptr, nullptr)
                            : pass(&tracer, rep, &small, &bulk);
    Status b = rep % 2 == 0 ? pass(&tracer, rep, &small, &bulk)
                            : pass(&off, rep, nullptr, nullptr);
    if (!a.ok()) return FailJson("replay", a);
    if (!b.ok()) return FailJson("replay", b);
  }
  if (Status s = WriteTrace(tracer, args); !s.ok()) return FailJson("trace", s);

  std::vector<double> all_parse = small.parse, all_get = small.get,
                      all_plan = small.plan;
  all_parse.insert(all_parse.end(), bulk.parse.begin(), bulk.parse.end());
  all_get.insert(all_get.end(), bulk.get.begin(), bulk.get.end());
  all_plan.insert(all_plan.end(), bulk.plan.begin(), bulk.plan.end());
  std::vector<double> all_charge = small.charge, all_persist = small.persist;
  all_charge.insert(all_charge.end(), bulk.charge.begin(), bulk.charge.end());
  all_persist.insert(all_persist.end(), bulk.persist.begin(),
                     bulk.persist.end());
  JsonLine out;
  out.Bool("ok", true)
      .Num("parse_us", Median(all_parse))
      .Num("registry_get_us", Median(all_get))
      .Num("ledger_charge_us", Median(all_charge))
      .Num("ledger_persist_us", Median(all_persist))
      .Num("plan_build_us", Median(all_plan))
      .Num("sample_small_us", Median(small.sample))
      .Num("sample_bulk_us", Median(bulk.sample))
      .Num("render_small_us", Median(small.render))
      .Num("render_bulk_us", Median(bulk.render))
      .Num("bytes_small", Median(small.bytes))
      .Num("bytes_bulk", Median(bulk.bytes))
      .Num("service_small_us", Median(small.service))
      .Num("service_bulk_us", Median(bulk.service))
      .Num("traced_pass_s", Median(traced_pass_s))
      .Num("untraced_pass_s", Median(untraced_pass_s));
  AddCoverage(tracer, &out);
  out.Print();
  return 0;
}

}  // namespace perfbench
