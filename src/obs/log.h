#ifndef DPCOPULA_OBS_LOG_H_
#define DPCOPULA_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

namespace dpcopula::obs {

/// Severity levels, most verbose first. kOff disables all logging.
enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Stable lower-case name ("trace" .. "off").
const char* LogLevelName(LogLevel level);

/// Parses "trace|debug|info|warn|error|off" (case-sensitive). Returns false
/// on unknown names and leaves *out untouched.
bool ParseLogLevel(const std::string& name, LogLevel* out);

/// Runtime switchboard for the observability layer. All three subsystems
/// are off by default: a library user who never touches obs:: pays at most
/// two relaxed atomic loads per instrumentation site and nothing else.
///
/// None of the switches may affect released bytes: instrumentation reads
/// clocks and bumps counters but never touches an Rng or changes control
/// flow of the synthesis itself (the determinism tests enforce this).
struct ObsConfig {
  LogLevel log_level = LogLevel::kOff;
  bool metrics = false;  // MetricsRegistry updates.
  bool trace = false;    // Span recording.
};

/// Installs `config` process-wide. Safe to call at any time; individual
/// switches are published with relaxed atomics (observability tolerates a
/// brief mixed state, the data release never depends on it).
void SetObsConfig(const ObsConfig& config);

/// The currently installed configuration.
ObsConfig GetObsConfig();

namespace internal {
extern std::atomic<int> g_log_level;
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_trace_enabled;

/// Small dense per-thread index (0, 1, 2, ...) used for metric sharding and
/// span thread attribution. Assigned on first use per thread.
int ThreadIndex();
}  // namespace internal

/// True when events at `level` should be emitted.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         internal::g_log_level.load(std::memory_order_relaxed);
}

inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// One structured log line, built by chaining Field() calls and emitted on
/// destruction (end of the full expression):
///
///   obs::Log(obs::LogLevel::kInfo, "synthesize.start")
///       .Field("rows", table.num_rows())
///       .Field("epsilon", options.epsilon);
///
/// renders as
///
///   [dpcopula] level=info event=synthesize.start t=0 rows=2000 epsilon=1
///
/// on stderr (one fprintf per line, so concurrent events interleave at line
/// granularity). When the level is filtered out, construction costs one
/// branch and no allocation.
class Log {
 public:
  Log(LogLevel level, const char* event);
  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  Log& Field(const char* key, const char* value);
  Log& Field(const char* key, const std::string& value);
  Log& Field(const char* key, double value);
  Log& Field(const char* key, std::int64_t value);
  Log& Field(const char* key, std::uint64_t value);
  /// Catch-all for the remaining integer widths (int, size_t, ...).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Log& Field(const char* key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return Field(key, static_cast<std::int64_t>(value));
    } else {
      return Field(key, static_cast<std::uint64_t>(value));
    }
  }
  Log& Field(const char* key, bool value) {
    return Field(key, value ? "true" : "false");
  }

 private:
  bool enabled_;
  std::string line_;
};

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_LOG_H_
