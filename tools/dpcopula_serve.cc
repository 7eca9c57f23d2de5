// dpcopula_serve: the DPCopula model-serving daemon.
//
// Loads one or more fitted models (written by `dpcopula --model-out` /
// core::SaveModel) and serves synthetic-data sampling over a line-delimited
// TCP protocol (see src/serve/protocol.h and DESIGN.md §13). Sampling from
// a released model is pure post-processing — the daemon's job is admission
// control (per-tenant budget ledgers, persisted across restarts), freshness
// (mtime-based hot reload with atomic version swap), and backpressure
// (bounded accept queue with fast 503 rejects).
//
//   daemon:  dpcopula_serve --model census=census.model --port 7070
//                [--ledger budgets.ledger] [--default-allowance X]
//                [--workers N] [--sample-threads N] [--queue-capacity N]
//                [--max-rows N] [--host H] [--port-file PATH]
//                [--duration-seconds N] [--trace-json PATH]
//                [--trace-chrome PATH] [--log-level LEVEL]
//   client:  dpcopula_serve --client HOST:PORT --request "PING"
//
// The daemon runs until SIGINT/SIGTERM (or --duration-seconds elapses),
// then shuts down cleanly and writes any requested obs reports. The client
// mode sends a single request line and prints the response — enough for
// smoke tests and scripting without a separate netcat dependency.

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/server.h"
#include "flag_value.h"
#include "obs_flags.h"

namespace {

using dpcopula::tools::FlagDouble;
using dpcopula::tools::FlagUint;
using dpcopula::tools::ObsFlags;

constexpr std::uint64_t kMaxPort = 65535;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct ServeArgs {
  std::vector<std::pair<std::string, std::string>> models;  // name -> path
  dpcopula::serve::ServerOptions server;
  std::string port_file;
  long long duration_seconds = 0;  // 0 = run until signalled.
  std::string client;              // HOST:PORT → client mode.
  std::string request;
  ObsFlags obs{"info"};
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model NAME=PATH [--model NAME=PATH ...]\n"
      "          [--host H] [--port N] [--port-file PATH]\n"
      "          [--workers N] [--sample-threads N] [--queue-capacity N]\n"
      "          [--max-rows N] [--ledger PATH] [--default-allowance X]\n"
      "          [--duration-seconds N]\n"
      "          %s\n"
      "       %s --client HOST:PORT --request LINE\n",
      argv0, ObsFlags::kUsage, argv0);
}

bool ParseArgs(int argc, char** argv, ServeArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--model") {
      const char* v = next();
      if (!v) return false;
      const std::string spec = v;
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "--model wants NAME=PATH, got '%s'\n", v);
        return false;
      }
      args->models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--host") {
      const char* v = next();
      if (!v) return false;
      args->server.host = v;
    } else if (flag == "--port") {
      if (!FlagUint(flag, next(), &args->server.port, kMaxPort)) return false;
    } else if (flag == "--port-file") {
      const char* v = next();
      if (!v) return false;
      args->port_file = v;
    } else if (flag == "--workers") {
      if (!FlagUint(flag, next(), &args->server.num_workers)) return false;
    } else if (flag == "--sample-threads") {
      if (!FlagUint(flag, next(), &args->server.sample_threads)) return false;
    } else if (flag == "--queue-capacity") {
      if (!FlagUint(flag, next(), &args->server.queue_capacity)) return false;
    } else if (flag == "--max-rows") {
      if (!FlagUint(flag, next(), &args->server.max_rows_per_request)) {
        return false;
      }
    } else if (flag == "--ledger") {
      const char* v = next();
      if (!v) return false;
      args->server.ledger.persist_path = v;
    } else if (flag == "--default-allowance") {
      if (!FlagDouble(flag, next(), &args->server.ledger.default_allowance)) {
        return false;
      }
    } else if (flag == "--duration-seconds") {
      if (!FlagUint(flag, next(), &args->duration_seconds)) return false;
    } else if (flag == "--client") {
      const char* v = next();
      if (!v) return false;
      args->client = v;
    } else if (flag == "--request") {
      const char* v = next();
      if (!v) return false;
      args->request = v;
    } else if (ObsFlags::Owns(flag)) {
      const char* v = next();
      if (!v) return false;
      args->obs.Set(flag, v);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Sends one request line and prints the response. SAMPLE csv responses are
// multi-line and end with "END"; everything else is a single line.
int RunClient(const std::string& target, const std::string& request) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--client wants HOST:PORT, got '%s'\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  std::uint16_t port = 0;
  if (!FlagUint("--client port", target.c_str() + colon + 1, &port)) return 2;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "bad host '%s' (want an IPv4 address)\n",
                 host.c_str());
    ::close(fd);
    return 2;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }
  const std::string line = request + "\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    std::perror("send");
    ::close(fd);
    return 1;
  }
  std::string buffer;
  char chunk[4096];
  bool multi_line = false;
  bool saw_status = false;
  int exit_code = 1;
  while (true) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string response_line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      std::printf("%s\n", response_line.c_str());
      if (!saw_status) {
        saw_status = true;
        exit_code = response_line.rfind("OK", 0) == 0 ? 0 : 1;
        multi_line = response_line.rfind("OK SAMPLE", 0) == 0;
        if (!multi_line) break;
      } else if (response_line == "END") {
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpcopula;  // NOLINT(build/namespaces) — CLI binary.
  ServeArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  if (!args.client.empty()) {
    if (args.request.empty()) {
      std::fprintf(stderr, "--client needs --request\n");
      return 2;
    }
    return RunClient(args.client, args.request);
  }

  if (args.models.empty()) {
    std::fprintf(stderr, "at least one --model NAME=PATH is required\n");
    Usage(argv[0]);
    return 2;
  }

  if (!args.obs.Start()) return 2;

  Result<std::unique_ptr<serve::Server>> created =
      serve::Server::Create(args.server);
  if (!created.ok()) {
    std::fprintf(stderr, "failed to start server: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::Server> server = created.MoveValueUnsafe();
  for (const auto& [name, path] : args.models) {
    Status added = server->AddModel(name, path);
    if (!added.ok()) {
      std::fprintf(stderr, "failed to load model '%s' from %s: %s\n",
                   name.c_str(), path.c_str(), added.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving model '%s' from %s\n", name.c_str(),
                 path.c_str());
  }

  if (!args.port_file.empty()) {
    std::ofstream out(args.port_file);
    out << server->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write port file %s\n",
                   args.port_file.c_str());
      return 1;
    }
  }
  std::printf("listening on %s:%d\n", args.server.host.c_str(),
              server->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(args.duration_seconds > 0 ? args.duration_seconds
                                                     : 0);
  while (g_stop == 0) {
    if (args.duration_seconds > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server->Shutdown();
  const serve::Server::Stats stats = server->GetStats();
  std::fprintf(stderr,
               "served %llu requests (%llu samples, %llu rows, "
               "%llu budget rejections, %llu busy rejections)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.samples_ok),
               static_cast<unsigned long long>(stats.rows_sampled),
               static_cast<unsigned long long>(stats.budget_rejections),
               static_cast<unsigned long long>(
                   stats.connections_rejected_busy));
  server.reset();

  return args.obs.Finish(nullptr) ? 0 : 1;
}
