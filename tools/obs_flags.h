// The observability flags every command-line tool takes, and the run they
// configure:
//
//   --trace-json PATH    JSON run report: span tree, metrics (the per-stage
//                        histograms among them), peak RSS and hardware
//                        counters, and the budget audit when there is one
//   --trace-chrome PATH  the span timeline in Chrome trace-event JSON
//                        (load in Perfetto / chrome://tracing)
//   --log-level LEVEL    trace|debug|info|warn|error|off
#ifndef DPCOPULA_TOOLS_OBS_FLAGS_H_
#define DPCOPULA_TOOLS_OBS_FLAGS_H_

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "obs/log.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace_export.h"

namespace dpcopula::tools {

class ObsFlags {
 public:
  static constexpr const char* kUsage =
      "[--trace-json PATH] [--trace-chrome PATH] [--log-level LEVEL]";

  explicit ObsFlags(std::string default_log_level)
      : log_level_(std::move(default_log_level)) {}

  /// True for the three flags above; they all take a value.
  static bool Owns(const std::string& flag) {
    return flag == "--trace-json" || flag == "--trace-chrome" ||
           flag == "--log-level";
  }

  /// Stores the value of an owned flag.
  void Set(const std::string& flag, const char* value) {
    if (flag == "--trace-json") {
      trace_json_ = value;
    } else if (flag == "--trace-chrome") {
      trace_chrome_ = value;
    } else {
      log_level_ = value;
    }
  }

  /// Installs the obs config: tracing for either artifact, metrics for the
  /// run report, which also starts the profile session. False, after
  /// saying why, on an unknown log level.
  bool Start() {
    obs::ObsConfig config;
    if (!obs::ParseLogLevel(log_level_, &config.log_level)) {
      std::fprintf(stderr, "unknown log level '%s'\n", log_level_.c_str());
      return false;
    }
    config.trace = !trace_json_.empty() || !trace_chrome_.empty();
    config.metrics = !trace_json_.empty();
    obs::SetObsConfig(config);
    if (config.metrics) session_.emplace();
    return true;
  }

  /// Closes the profile session, so its gauges land in the report, and
  /// writes each requested artifact. Attempts both; false if either failed.
  bool Finish(const obs::BudgetAudit* audit) {
    session_.reset();
    bool ok = true;
    if (!trace_chrome_.empty()) {
      ok &= Written("chrome trace", trace_chrome_,
                    obs::WriteChromeTrace(trace_chrome_));
    }
    if (!trace_json_.empty()) {
      ok &= Written("trace report", trace_json_,
                    obs::WriteRunReport(trace_json_, audit));
    }
    return ok;
  }

 private:
  static bool Written(const char* what, const std::string& path,
                      const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s %s: %s\n", what, path.c_str(),
                   status.ToString().c_str());
      return false;
    }
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
    return true;
  }

  std::string trace_json_;
  std::string trace_chrome_;
  std::string log_level_;
  std::optional<obs::ProfileSession> session_;
};

}  // namespace dpcopula::tools

#endif  // DPCOPULA_TOOLS_OBS_FLAGS_H_
