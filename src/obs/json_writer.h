#ifndef DPCOPULA_OBS_JSON_WRITER_H_
#define DPCOPULA_OBS_JSON_WRITER_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

/// Append-style JSON emission shared by the run report and the Chrome
/// trace exporter. The schemas are small and fully known, so a handful of
/// helpers beats dragging in a JSON library (the container has none).
/// Internal to obs; json_reader.h is the reading side.

namespace dpcopula::obs::internal {

inline void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

inline void AppendJsonDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null keeps the document parseable and the
    // pathology visible.
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

inline void AppendJsonInt(std::string* out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

/// Microseconds with nanosecond precision — the unit of Chrome trace "ts"
/// and "dur" fields.
inline void AppendJsonMicros(std::string* out, std::int64_t nanos) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03d",
                static_cast<long long>(nanos / 1000),
                static_cast<int>(std::llabs(nanos % 1000)));
  *out += buf;
}

}  // namespace dpcopula::obs::internal

#endif  // DPCOPULA_OBS_JSON_WRITER_H_
