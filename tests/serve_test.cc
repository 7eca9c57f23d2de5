// Integration tests for the serving daemon: an in-process Server instance
// exercised over real loopback TCP connections — deterministic seed
// replay, per-tenant budget admission with restart persistence, hot
// reload under live traffic, and bounded-queue backpressure.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/model_io.h"
#include "data/generator.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace dpcopula::serve {
namespace {

core::DpCopulaModel FitModel(
    std::uint64_t seed, std::size_t rows,
    core::CopulaFamily family = core::CopulaFamily::kGaussian) {
  Rng rng(seed);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 50), data::MarginSpec::Zipf("b", 40, 1.0)};
  auto table = data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.5), rows, &rng);
  core::DpCopulaOptions opts;
  opts.epsilon = 5.0;
  opts.family = family;
  opts.t_dof = 4.0;  // Only read by the Student-t family.
  auto res = core::Synthesize(*table, opts, &rng);
  return core::ModelFromSynthesis(table->schema(), *res);
}

std::string TempPath(const char* name) {
  return std::string("/tmp/dpcopula_serve_test_") + name;
}

// Minimal blocking test client speaking the line protocol over loopback.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // One full response: a single line, or — for "OK SAMPLE ... csv" — every
  // line through the terminating "END".
  std::string ReadResponse() {
    std::string line;
    if (!ReadLine(&line)) return "";
    std::string response = line + "\n";
    if (line.rfind("OK SAMPLE", 0) == 0 &&
        line.find(" csv") != std::string::npos) {
      while (ReadLine(&line)) {
        response += line + "\n";
        if (line == "END") break;
      }
    }
    return response;
  }

  std::string Roundtrip(const std::string& request) {
    if (!Send(request)) return "";
    return ReadResponse();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::unique_ptr<Server> StartServer(const std::string& model_path,
                                    ServerOptions options = {}) {
  auto created = Server::Create(std::move(options));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = created.MoveValueUnsafe();
  EXPECT_TRUE(server->AddModel("m", model_path).ok());
  return server;
}

TEST(ServeTest, PingStatsAndProtocolErrors) {
  const std::string path = TempPath("basic.model");
  ASSERT_TRUE(core::SaveModel(FitModel(11, 300), path).ok());
  auto server = StartServer(path);
  Client client(server->port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Roundtrip("PING"), "OK PONG\n");
  EXPECT_EQ(client.Roundtrip("NONSENSE x y"),
            "ERR 400 bad request: unknown verb\n");
  const std::string missing = client.Roundtrip("SAMPLE nosuch t 0 5 1");
  EXPECT_EQ(missing.rfind("ERR 404", 0), 0u) << missing;
  const std::string too_big = client.Roundtrip("SAMPLE m t 0 999999999 1");
  EXPECT_EQ(too_big.rfind("ERR 413", 0), 0u) << too_big;
  const std::string budget = client.Roundtrip("BUDGET acme");
  EXPECT_EQ(budget.rfind("OK BUDGET acme total=1 spent=0", 0), 0u) << budget;
  const std::string stats = client.Roundtrip("STATS");
  EXPECT_EQ(stats.rfind("OK STATS ", 0), 0u) << stats;
  EXPECT_EQ(client.Roundtrip("QUIT"), "OK BYE\n");
  const Server::Stats s = server->GetStats();
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_EQ(s.requests, 7u);
  std::remove(path.c_str());
}

TEST(ServeTest, DeterministicReplayBySeed) {
  const std::string path = TempPath("replay.model");
  ASSERT_TRUE(core::SaveModel(FitModel(13, 300), path).ok());
  ServerOptions options;
  options.sample_threads = 2;  // Replay must hold at any thread count.
  auto server = StartServer(path, options);
  Client a(server->port());
  Client b(server->port());
  ASSERT_TRUE(a.connected() && b.connected());
  const std::string first = a.Roundtrip("SAMPLE m t 0 64 12345");
  const std::string second = b.Roundtrip("SAMPLE m t 0 64 12345");
  EXPECT_EQ(first.rfind("OK SAMPLE 64 2 csv", 0), 0u) << first;
  // Same (model, rows, seed) → bit-identical bytes, across connections.
  EXPECT_EQ(first, second);
  const std::string other_seed = a.Roundtrip("SAMPLE m t 0 64 54321");
  EXPECT_EQ(other_seed.rfind("OK SAMPLE 64 2 csv", 0), 0u) << other_seed;
  EXPECT_NE(first, other_seed);
  std::remove(path.c_str());
}

TEST(ServeTest, BudgetExhaustionPersistsAcrossRestart) {
  const std::string model_path = TempPath("budget.model");
  const std::string ledger_path = TempPath("budget.ledger");
  std::remove(ledger_path.c_str());
  ASSERT_TRUE(core::SaveModel(FitModel(17, 300), model_path).ok());
  ServerOptions options;
  options.ledger.default_allowance = 0.5;
  options.ledger.persist_path = ledger_path;
  {
    auto server = StartServer(model_path, options);
    Client client(server->port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Roundtrip("SAMPLE m acme 0.25 8 1")
                  .rfind("OK SAMPLE", 0),
              0u);
    EXPECT_EQ(client.Roundtrip("SAMPLE m acme 0.25 8 2")
                  .rfind("OK SAMPLE", 0),
              0u);
    const std::string rejected = client.Roundtrip("SAMPLE m acme 0.25 8 3");
    EXPECT_EQ(rejected.rfind("ERR 429", 0), 0u) << rejected;
    EXPECT_EQ(server->GetStats().budget_rejections, 1u);
    server->Shutdown();
  }
  // A fresh process (new Server over the same ledger file) must remember
  // the spend: the tenant stays exhausted, it does not get a fresh 0.5.
  {
    auto server = StartServer(model_path, options);
    Client client(server->port());
    ASSERT_TRUE(client.connected());
    const std::string budget = client.Roundtrip("BUDGET acme");
    EXPECT_EQ(budget.rfind("OK BUDGET acme total=0.5 spent=0.5", 0), 0u)
        << budget;
    const std::string rejected = client.Roundtrip("SAMPLE m acme 0.25 8 4");
    EXPECT_EQ(rejected.rfind("ERR 429", 0), 0u) << rejected;
    // Zero-epsilon replay stays free and admitted even when exhausted.
    EXPECT_EQ(client.Roundtrip("SAMPLE m acme 0 8 1").rfind("OK SAMPLE", 0),
              0u);
  }
  std::remove(model_path.c_str());
  std::remove(ledger_path.c_str());
}

TEST(ServeTest, ConcurrentClientsAllServed) {
  const std::string path = TempPath("concurrent.model");
  ASSERT_TRUE(core::SaveModel(FitModel(19, 300), path).ok());
  ServerOptions options;
  options.num_workers = 4;
  auto server = StartServer(path, options);
  constexpr int kThreads = 4;
  constexpr int kRequestsEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Client client(server->port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string seed = std::to_string(t * 100 + r);
        const std::string reply =
            client.Roundtrip("SAMPLE m tenant" + std::to_string(t) +
                             " 0.001 16 " + seed);
        if (reply.rfind("OK SAMPLE 16 2 csv", 0) != 0 ||
            reply.find("END\n") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  const Server::Stats stats = server->GetStats();
  EXPECT_EQ(stats.samples_ok,
            static_cast<std::uint64_t>(kThreads * kRequestsEach));
  EXPECT_EQ(stats.rows_sampled,
            static_cast<std::uint64_t>(kThreads * kRequestsEach * 16));
  std::remove(path.c_str());
}

TEST(ServeTest, HotReloadSwapsModelMidTraffic) {
  const std::string path = TempPath("reload.model");
  ASSERT_TRUE(core::SaveModel(FitModel(23, 400), path).ok());
  ServerOptions options;
  options.num_workers = 3;
  auto server = StartServer(path, options);

  // Default-rows sampling tells us which version served the request:
  // version one was fitted on 400 rows, version two on 250.
  Client probe(server->port());
  ASSERT_TRUE(probe.connected());
  EXPECT_EQ(probe.Roundtrip("SAMPLE m t 0 0 7").rfind("OK SAMPLE 400 2", 0),
            0u);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      Client client(server->port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      int r = 0;
      while (!stop.load()) {
        const std::string reply = client.Roundtrip(
            "SAMPLE m t 0 32 " + std::to_string(t * 1000 + r++));
        // Every response during the swap must be a complete, well-formed
        // sample from *some* version — old or new, never torn.
        if (reply.rfind("OK SAMPLE 32 2 csv", 0) != 0 ||
            reply.find("END\n") == std::string::npos) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Atomic-rename publish of a new version while traffic is flowing.
  ASSERT_TRUE(core::SaveModel(FitModel(29, 250), path).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool swapped = false;
  while (!swapped && std::chrono::steady_clock::now() < deadline) {
    const std::string reply = probe.Roundtrip("SAMPLE m t 0 0 7");
    if (reply.rfind("OK SAMPLE 250 2", 0) == 0) {
      swapped = true;
    } else if (reply.rfind("OK SAMPLE 400 2", 0) != 0) {
      ADD_FAILURE() << "unexpected mid-reload response: " << reply;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : traffic) t.join();
  EXPECT_TRUE(swapped) << "new model version never became visible";
  EXPECT_EQ(failures.load(), 0);
  // An explicit RELOAD after the swap reports the file as current.
  EXPECT_EQ(probe.Roundtrip("RELOAD m"), "OK RELOAD unchanged\n");
  std::remove(path.c_str());
}

// The reply the per-call path renders for the model file at `path`.
std::string PerCallReply(const std::string& path, std::size_t rows,
                         std::uint64_t seed) {
  auto model = core::LoadModel(path);
  if (!model.ok()) return "load failed: " + model.status().ToString();
  Rng rng(seed);
  auto sampled = core::SampleFromModel(*model, rows, &rng);
  if (!sampled.ok()) return "sample failed: " + sampled.status().ToString();
  return RenderSampleResponse(*sampled, /*binary=*/false);
}

TEST(ServeTest, CachedPlanMatchesPerCallSampling) {
  const std::string path = TempPath("plan.model");
  const core::DpCopulaModel gaussian = FitModel(37, 300);
  const core::DpCopulaModel student_t =
      FitModel(41, 260, core::CopulaFamily::kStudentT);
  ASSERT_EQ(student_t.family, core::CopulaFamily::kStudentT);
  const std::pair<const core::DpCopulaModel*, const core::DpCopulaModel*>
      orders[] = {{&gaussian, &student_t}, {&student_t, &gaussian}};
  for (const auto& [first, second] : orders) {
    ASSERT_TRUE(core::SaveModel(*first, path).ok());
    ServerOptions options;
    options.sample_threads = 2;
    auto server = StartServer(path, options);
    Client client(server->port());
    ASSERT_TRUE(client.connected());
    const auto expect_per_call_bytes = [&](const char* phase) {
      // Rows 0 asks for the model's fitted row count.
      for (const std::size_t rows : {1, 100, 5000, 0}) {
        for (const std::uint64_t seed : {3, 11}) {
          const std::string reply = client.Roundtrip(
              "SAMPLE m t 0 " + std::to_string(rows) + " " +
              std::to_string(seed));
          EXPECT_EQ(reply, PerCallReply(path, rows, seed))
              << phase << " rows=" << rows << " seed=" << seed;
        }
      }
    };
    expect_per_call_bytes("before reload");
    ASSERT_TRUE(core::SaveModel(*second, path).ok());
    EXPECT_EQ(client.Roundtrip("RELOAD m"), "OK RELOAD reloaded\n");
    expect_per_call_bytes("after reload");
    server->Shutdown();
  }
  std::remove(path.c_str());
}

TEST(ServeTest, BackpressureRejectsWithFast503) {
  const std::string path = TempPath("backpressure.model");
  ASSERT_TRUE(core::SaveModel(FitModel(31, 300), path).ok());
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  auto server = StartServer(path, options);

  // Occupy the only worker: a round-trip guarantees the connection is
  // attached to it (workers hold a connection until it closes).
  Client held(server->port());
  ASSERT_TRUE(held.connected());
  EXPECT_EQ(held.Roundtrip("PING"), "OK PONG\n");

  // Fill the single queue slot.
  Client queued(server->port());
  ASSERT_TRUE(queued.connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Queue full: the accept thread must answer 503 immediately — without
  // waiting for a worker — and close.
  Client rejected(server->port());
  ASSERT_TRUE(rejected.connected());
  const std::string reply = rejected.ReadResponse();
  EXPECT_EQ(reply, "ERR 503 server busy\n");

  // Releasing the worker drains the queued connection normally.
  held.Close();
  EXPECT_EQ(queued.Roundtrip("PING"), "OK PONG\n");
  EXPECT_GE(server->GetStats().connections_rejected_busy, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpcopula::serve
