// perfbench_tool: the process-level building blocks of the end-to-end
// benchmark. run.py starts one process per step, so every timed release
// and the server each run in a fresh process, as the CLI and daemon do.
//
//   perfbench_tool <subcommand> --key value ...
#include <cstdio>
#include <map>
#include <string>

#include "commands.h"

int main(int argc, char** argv) {
  using Command = int (*)(const perfbench::Args&);
  const std::map<std::string, Command> commands = {
      {"gen", perfbench::RunGen},
      {"release", perfbench::RunRelease},
      {"synth-plain", perfbench::RunSynthPlain},
      {"layers", perfbench::RunLayers},
      {"check", perfbench::RunCheck},
      {"probe", perfbench::RunProbe},
      {"fit", perfbench::RunFit},
      {"server", perfbench::RunServer},
      {"load", perfbench::RunLoad},
      {"serve-layers", perfbench::RunServeLayers},
  };
  auto it = argc >= 2 ? commands.find(argv[1]) : commands.end();
  if (it == commands.end()) {
    std::fprintf(stderr, "usage: %s <subcommand> [--key value ...]\n", argv[0]);
    return 2;
  }
  auto args = perfbench::Args::Parse(argc, argv, 2);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  return it->second(*args);
}
