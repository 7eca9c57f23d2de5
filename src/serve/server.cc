#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/rng.h"
#include "copula/sampler.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpcopula::serve {

namespace {

// Poll granularity for accept/read loops. close() on Linux does not wake a
// thread blocked in accept()/recv(), so every blocking wait is a short
// poll() that re-checks the stop flag.
constexpr int kPollMillis = 100;

// A request line plus slack; connections streaming more than this without
// a newline are protocol violations and get closed.
constexpr std::size_t kMaxBufferedBytes = 8192;

bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string FormatBudgetLine(const std::string& tenant,
                             const TenantLedger::TenantBudget& budget) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "OK BUDGET %s total=%.17g spent=%.17g remaining=%.17g\n",
                tenant.c_str(), budget.total, budget.spent,
                budget.remaining());
  return buffer;
}

}  // namespace

Server::Server(ServerOptions options, TenantLedger ledger)
    : options_(std::move(options)), ledger_(std::move(ledger)) {}

Result<std::unique_ptr<Server>> Server::Create(ServerOptions options) {
  DPC_ASSIGN_OR_RETURN(TenantLedger ledger,
                       TenantLedger::Open(options.ledger));
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  std::unique_ptr<Server> server(
      new Server(std::move(options), std::move(ledger)));
  DPC_RETURN_NOT_OK(server->Listen());
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  server->workers_.reserve(
      static_cast<std::size_t>(server->options_.num_workers));
  for (int i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  obs::Log(obs::LogLevel::kInfo, "serve.start")
      .Field("port", static_cast<std::int64_t>(server->port_))
      .Field("workers", static_cast<std::int64_t>(server->options_.num_workers));
  return server;
}

Server::~Server() { Shutdown(); }

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind() failed on " + options_.host + ":" +
                           std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status Server::AddModel(const std::string& name, const std::string& path) {
  return registry_.Add(name, path);
}

void Server::AcceptLoop() {
  static obs::Counter* const accepted =
      obs::MetricsRegistry::Global().GetCounter("serve.connections");
  static obs::Counter* const busy =
      obs::MetricsRegistry::Global().GetCounter("serve.busy_rejections");
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check stop flag.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (DPC_FAILPOINT("serve.accept")) {
      // Simulates accept-path resource failure: the connection is dropped
      // before any request is read; the client sees a reset, not a hang.
      errors_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.queue_capacity) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      accepted->Increment();
      queue_cv_.notify_one();
    } else {
      connections_rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      busy->Increment();
      SendAll(fd, RenderError(503, "server busy"));
      ::close(fd);
    }
  }
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      // On stop, leave anything still queued for Shutdown's 503 drain.
      if (stop_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
  }
}

void Server::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!Dispatch(fd, line)) break;
      continue;
    }
    if (buffer.size() > kMaxBufferedBytes) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd, RenderError(400, "bad request: line too long"));
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;  // Timeout: re-check stop flag.
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // Peer closed or connection error.
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

bool Server::Dispatch(int fd, const std::string& line) {
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("serve.request_seconds");
  static obs::Counter* const requests =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests->Increment();
  obs::Span timer(latency);
  Result<Request> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return SendAll(fd, RenderError(parsed.status()));
  }
  const Request& request = *parsed;
  switch (request.kind) {
    case Request::Kind::kPing:
      return SendAll(fd, "OK PONG\n");
    case Request::Kind::kQuit:
      SendAll(fd, "OK BYE\n");
      return false;
    case Request::Kind::kStats:
      return SendAll(fd, HandleStats());
    case Request::Kind::kBudget:
      return SendAll(fd, HandleBudget(request));
    case Request::Kind::kReload:
      return SendAll(fd, HandleReload(request));
    case Request::Kind::kSample:
      return SendAll(fd, HandleSample(request));
  }
  return false;
}

std::string Server::HandleSample(const Request& request) {
  static obs::Counter* const rows_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.rows_sampled");
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  if (DPC_FAILPOINT_AT("serve.sample", seq)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return RenderError(failpoint::InjectedFault("serve.sample"));
  }
  Result<std::shared_ptr<const ServedModel>> found =
      registry_.Get(request.model);
  if (!found.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return RenderError(found.status());
  }
  // The shared_ptr keeps this version alive for the whole request even if
  // a hot reload publishes a newer one mid-sample.
  const std::shared_ptr<const ServedModel> served = found.MoveValueUnsafe();
  const std::uint64_t rows =
      request.rows > 0 ? request.rows : served->model.fitted_rows;
  if (rows > options_.max_rows_per_request) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return RenderError(Status::OutOfRange(
        "rows exceeds per-request limit " +
        std::to_string(options_.max_rows_per_request)));
  }
  Status charged = ledger_.Charge(request.tenant, request.epsilon,
                                  "serve:sample:" + request.model);
  if (!charged.ok()) {
    if (charged.code() == StatusCode::kPrivacyBudgetExceeded) {
      budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return RenderError(charged);
  }
  // Deterministic replay: the RNG is a pure function of the request seed,
  // and the sharded sampler is thread-count invariant, so the same
  // (model, rows, seed) always renders bit-identical bytes.
  Rng rng(request.seed);
  Result<data::Table> sampled =
      served->plan.Sample(rows, &rng, options_.sample_threads);
  if (!sampled.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return RenderError(sampled.status());
  }
  samples_ok_.fetch_add(1, std::memory_order_relaxed);
  rows_sampled_.fetch_add(rows, std::memory_order_relaxed);
  rows_counter->Add(static_cast<std::int64_t>(rows));
  return RenderSampleResponse(*sampled, request.binary);
}

std::string Server::HandleBudget(const Request& request) {
  return FormatBudgetLine(request.tenant, ledger_.Get(request.tenant));
}

std::string Server::HandleReload(const Request& request) {
  Result<bool> reloaded = registry_.CheckReload(request.model);
  if (!reloaded.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return RenderError(reloaded.status());
  }
  if (*reloaded) {
    reloads_.fetch_add(1, std::memory_order_relaxed);
    return "OK RELOAD reloaded\n";
  }
  return "OK RELOAD unchanged\n";
}

std::string Server::HandleStats() {
  const Stats stats = GetStats();
  std::string out = "OK STATS";
  out += " connections=" + std::to_string(stats.connections_accepted);
  out += " busy_rejected=" + std::to_string(stats.connections_rejected_busy);
  out += " requests=" + std::to_string(stats.requests);
  out += " samples=" + std::to_string(stats.samples_ok);
  out += " rows=" + std::to_string(stats.rows_sampled);
  out += " budget_rejected=" + std::to_string(stats.budget_rejections);
  out += " errors=" + std::to_string(stats.errors);
  out += " reloads=" + std::to_string(stats.reloads);
  out += '\n';
  return out;
}

Server::Stats Server::GetStats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected_busy =
      connections_rejected_busy_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.samples_ok = samples_ok_.load(std::memory_order_relaxed);
  stats.rows_sampled = rows_sampled_.load(std::memory_order_relaxed);
  stats.budget_rejections =
      budget_rejections_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.reloads = reloads_.load(std::memory_order_relaxed);
  return stats;
}

void Server::Shutdown() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Workers exit as soon as stop_ is set; answer anything still queued
  // with a fast 503 so no client hangs on a silently dropped connection.
  std::deque<int> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(pending_);
  }
  for (int fd : leftover) {
    SendAll(fd, RenderError(503, "server shutting down"));
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  obs::Log(obs::LogLevel::kInfo, "serve.stop")
      .Field("requests", requests_.load(std::memory_order_relaxed));
}

}  // namespace dpcopula::serve
