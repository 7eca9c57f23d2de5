// Serving-path benchmark: an in-process dpcopula_serve Server exercised
// over real loopback TCP by 1/2/4/8 persistent client threads, each
// running closed-loop SAMPLE requests (64 rows, epsilon 0 — free replay,
// so the ledger admits forever). Reported per configuration:
//   - rows/sec via SetItemsProcessed,
//   - qps (requests/sec, summed across client threads),
//   - client-observed latency p50/p99/p99.9 in microseconds (averaged
//     across client threads).
// The fixture server runs 8 workers so the client count — not worker
// starvation — is the variable under test; sampling itself is
// single-threaded per request (sample_threads = 1), matching the other
// hot-path acceptance configurations.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/model_io.h"
#include "data/generator.h"
#include "serve/server.h"

namespace {

using dpcopula::Rng;

constexpr std::uint64_t kRowsPerRequest = 64;

dpcopula::serve::Server& GetServer() {
  static std::unique_ptr<dpcopula::serve::Server>* server = [] {
    Rng rng(97);
    std::vector<dpcopula::data::MarginSpec> specs = {
        dpcopula::data::MarginSpec::Gaussian("a", 50),
        dpcopula::data::MarginSpec::Zipf("b", 40, 1.0)};
    auto table = dpcopula::data::GenerateGaussianDependent(
        specs, *dpcopula::data::Equicorrelation(2, 0.5), 2000, &rng);
    dpcopula::core::DpCopulaOptions opts;
    opts.epsilon = 5.0;
    auto res = dpcopula::core::Synthesize(*table, opts, &rng);
    auto model =
        dpcopula::core::ModelFromSynthesis(table->schema(), *res);
    const std::string path = "/tmp/dpcopula_bench_serve.model";
    if (!dpcopula::core::SaveModel(model, path).ok()) std::abort();
    dpcopula::serve::ServerOptions options;
    options.num_workers = 8;
    options.queue_capacity = 64;
    auto created = dpcopula::serve::Server::Create(options);
    if (!created.ok()) std::abort();
    auto* owned = new std::unique_ptr<dpcopula::serve::Server>(
        created.MoveValueUnsafe());
    if (!(*owned)->AddModel("m", path).ok()) std::abort();
    std::remove(path.c_str());
    return owned;
  }();
  return **server;
}

// Minimal blocking loopback client for the line protocol.
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
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  // One PING round-trip; the reply is exactly "OK PONG\n" (8 bytes).
  bool Ping() {
    static const std::string request = "PING\n";
    if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      return false;
    }
    char reply[8];
    std::size_t got = 0;
    while (got < sizeof(reply)) {
      const ssize_t n = ::recv(fd_, reply + got, sizeof(reply) - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Sends one request and drains the full response (through "END\n").
  bool Roundtrip(const std::string& line) {
    const std::string out = line + "\n";
    if (::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(out.size())) {
      return false;
    }
    // The response terminator is "END\n"; error lines end at their own
    // newline and never contain it, so check each refill.
    buffer_.clear();
    char chunk[8192];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (buffer_.size() >= 4 &&
          buffer_.compare(buffer_.size() - 4, 4, "END\n") == 0) {
        return buffer_.rfind("OK SAMPLE", 0) == 0;
      }
      if (buffer_.rfind("ERR", 0) == 0 && buffer_.back() == '\n') {
        return false;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

double Percentile(std::vector<double>* sorted_us, double q) {
  if (sorted_us->empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us->size() - 1));
  return (*sorted_us)[rank];
}

void BM_ServeSampleLoopback(benchmark::State& state) {
  dpcopula::serve::Server& server = GetServer();
  Client client(server.port());
  if (!client.connected()) {
    state.SkipWithError("connect failed");
    return;
  }
  // Distinct seeds across threads and iterations keep request bytes warm
  // but not byte-identical responses from a hot cache anywhere.
  std::uint64_t seed =
      static_cast<std::uint64_t>(state.thread_index()) * 1000003;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const bool ok = client.Roundtrip("SAMPLE m bench 0 " +
                                     std::to_string(kRowsPerRequest) + " " +
                                     std::to_string(seed++));
    const auto end = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("request failed");
      return;
    }
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRowsPerRequest));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p50_us"] = benchmark::Counter(
      Percentile(&latencies_us, 0.50), benchmark::Counter::kAvgThreads);
  state.counters["p99_us"] = benchmark::Counter(
      Percentile(&latencies_us, 0.99), benchmark::Counter::kAvgThreads);
  state.counters["p999_us"] = benchmark::Counter(
      Percentile(&latencies_us, 0.999), benchmark::Counter::kAvgThreads);
}

BENCHMARK(BM_ServeSampleLoopback)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Protocol floor: PING round-trips isolate the framing + scheduling cost
// from sampling itself.
void BM_ServePingLoopback(benchmark::State& state) {
  dpcopula::serve::Server& server = GetServer();
  Client client(server.port());
  if (!client.connected()) {
    state.SkipWithError("connect failed");
    return;
  }
  for (auto _ : state) {
    if (!client.Ping()) {
      state.SkipWithError("ping failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_ServePingLoopback)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
