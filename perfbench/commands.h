// Subcommands of perfbench_tool. Each prints one JSON line on stdout and
// returns the process exit code; run.py drives them, one process each.
#ifndef PERFBENCH_COMMANDS_H_
#define PERFBENCH_COMMANDS_H_

#include "common.h"

namespace perfbench {

// release.cc
int RunGen(const Args& args);
int RunRelease(const Args& args);
int RunSynthPlain(const Args& args);
int RunLayers(const Args& args);
int RunCheck(const Args& args);
int RunProbe(const Args& args);

// serve.cc
int RunFit(const Args& args);
int RunServer(const Args& args);
int RunLoad(const Args& args);
int RunServeLayers(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMANDS_H_
