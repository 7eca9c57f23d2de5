#ifndef DPCOPULA_SERVE_SERVER_H_
#define DPCOPULA_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/ledger.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace dpcopula::serve {

struct ServerOptions {
  /// Listen address; loopback by default — the daemon has no auth layer,
  /// exposure beyond localhost is a deployment decision.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable from port() after Create.
  int port = 0;
  /// Connection-handling worker threads.
  int num_workers = 2;
  /// Threads per sampling request (passed through to the copula sampler;
  /// output is thread-count invariant, so this never affects replay).
  int sample_threads = 1;
  /// Accepted connections queued ahead of the workers. When the queue is
  /// full the accept thread answers "ERR 503 server busy" and closes —
  /// a fast reject instead of unbounded memory growth.
  std::size_t queue_capacity = 64;
  /// Upper bound on rows per SAMPLE request (413 beyond it).
  std::uint64_t max_rows_per_request = 1u << 20;
  TenantLedger::Options ledger;
};

/// The dpcopula serving daemon: accepts line-delimited requests (see
/// protocol.h) over TCP, samples synthetic rows from registered models,
/// and enforces per-tenant privacy budgets. Create() binds, listens and
/// starts the accept/worker threads; Shutdown() (or the destructor) stops
/// them. Models are registered through AddModel and hot-reload from disk
/// when the backing file changes.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads `path` and serves it as `name`.
  Status AddModel(const std::string& name, const std::string& path);

  /// The bound TCP port (resolves option port 0).
  int port() const { return port_; }

  /// Stops accepting, drains queued connections with 503, joins all
  /// threads. Idempotent.
  void Shutdown();

  /// Monotonic counters mirrored in plain atomics so tests and the bench
  /// harness can assert on them while obs metrics are off, which they are
  /// unless the daemon runs with --trace-json (obs counters count only
  /// while metrics are on).
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected_busy = 0;
    std::uint64_t requests = 0;
    std::uint64_t samples_ok = 0;
    std::uint64_t rows_sampled = 0;
    std::uint64_t budget_rejections = 0;
    std::uint64_t errors = 0;
    std::uint64_t reloads = 0;
  };
  Stats GetStats() const;

 private:
  explicit Server(ServerOptions options, TenantLedger ledger);

  Status Listen();
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  /// Handles one parsed request; returns false when the connection should
  /// close (QUIT or fatal write error).
  bool Dispatch(int fd, const std::string& line);
  std::string HandleSample(const Request& request);
  std::string HandleBudget(const Request& request);
  std::string HandleReload(const Request& request);
  std::string HandleStats();

  ServerOptions options_;
  ModelRegistry registry_;
  TenantLedger ledger_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // Accepted fds awaiting a worker.

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> seq_{0};  // Request sequence, feeds failpoints.
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_busy_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> samples_ok_{0};
  std::atomic<std::uint64_t> rows_sampled_{0};
  std::atomic<std::uint64_t> budget_rejections_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> reloads_{0};
};

}  // namespace dpcopula::serve

#endif  // DPCOPULA_SERVE_SERVER_H_
