#include "obs/log.h"

#include <cstdio>

namespace dpcopula::obs {

namespace internal {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kOff)};
std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_trace_enabled{false};

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}
}  // namespace internal

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  for (LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

void SetObsConfig(const ObsConfig& config) {
  internal::g_log_level.store(static_cast<int>(config.log_level),
                              std::memory_order_relaxed);
  internal::g_metrics_enabled.store(config.metrics,
                                    std::memory_order_relaxed);
  internal::g_trace_enabled.store(config.trace, std::memory_order_relaxed);
}

namespace {

// True when the value can go on the line bare (logfmt convention: quote
// anything with spaces, quotes, or '=').
bool NeedsQuoting(const std::string& value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') {
      return true;
    }
  }
  return false;
}

void AppendValue(std::string* line, const std::string& value) {
  if (!NeedsQuoting(value)) {
    *line += value;
    return;
  }
  *line += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        *line += "\\\"";
        break;
      case '\\':
        *line += "\\\\";
        break;
      case '\n':
        *line += "\\n";
        break;
      case '\t':
        *line += "\\t";
        break;
      default:
        *line += c;
    }
  }
  *line += '"';
}

}  // namespace

Log::Log(LogLevel level, const char* event) : enabled_(LogEnabled(level)) {
  if (!enabled_) return;
  line_.reserve(128);
  line_ += "[dpcopula] level=";
  line_ += LogLevelName(level);
  line_ += " event=";
  line_ += event;
  char buf[32];
  std::snprintf(buf, sizeof(buf), " t=%d", internal::ThreadIndex());
  line_ += buf;
}

Log::~Log() {
  if (!enabled_) return;
  line_ += '\n';
  std::fputs(line_.c_str(), stderr);
}

Log& Log::Field(const char* key, const char* value) {
  if (!enabled_) return *this;
  line_ += ' ';
  line_ += key;
  line_ += '=';
  AppendValue(&line_, value);
  return *this;
}

Log& Log::Field(const char* key, const std::string& value) {
  if (!enabled_) return *this;
  line_ += ' ';
  line_ += key;
  line_ += '=';
  AppendValue(&line_, value);
  return *this;
}

Log& Log::Field(const char* key, double value) {
  if (!enabled_) return *this;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += buf;
  return *this;
}

Log& Log::Field(const char* key, std::int64_t value) {
  if (!enabled_) return *this;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += buf;
  return *this;
}

Log& Log::Field(const char* key, std::uint64_t value) {
  if (!enabled_) return *this;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += buf;
  return *this;
}

}  // namespace dpcopula::obs
