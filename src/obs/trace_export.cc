#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>

#include "common/atomic_file.h"
#include "obs/json_writer.h"

namespace dpcopula::obs {

namespace {

using internal::AppendJsonInt;
using internal::AppendJsonMicros;
using internal::AppendJsonString;

void AppendMetadataEvent(std::string* out, const char* event_name, int tid,
                         const std::string& display_name) {
  *out += "    {\"name\": ";
  AppendJsonString(out, event_name);
  *out += ", \"ph\": \"M\", \"pid\": 1";
  if (tid >= 0) {
    *out += ", \"tid\": ";
    AppendJsonInt(out, tid);
  }
  *out += ", \"args\": {\"name\": ";
  AppendJsonString(out, display_name);
  *out += "}}";
}

}  // namespace

std::string RenderChromeTraceJson(const std::vector<SpanRecord>& spans,
                                  std::int64_t dropped_spans) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  std::set<int> tids;
  for (const SpanRecord& span : spans) {
    ordered.push_back(&span);
    tids.insert(span.thread_index);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->id < b->id;
            });

  std::string out;
  out.reserve(256 + 192 * ordered.size());
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {";
  out += "\"tool\": \"dpcopula\", \"dropped_spans\": ";
  // Chrome requires otherData values to be strings.
  std::string dropped_str;
  AppendJsonInt(&dropped_str, dropped_spans);
  AppendJsonString(&out, dropped_str);
  out += "},\n  \"traceEvents\": [\n";

  AppendMetadataEvent(&out, "process_name", /*tid=*/-1, "dpcopula");
  for (int tid : tids) {
    out += ",\n";
    char name[32];
    std::snprintf(name, sizeof(name), "thread-%d", tid);
    AppendMetadataEvent(&out, "thread_name", tid, name);
  }

  for (const SpanRecord* span : ordered) {
    out += ",\n    {\"name\": ";
    AppendJsonString(&out, span->name);
    out += ", \"cat\": \"dpcopula\", \"ph\": \"X\", \"ts\": ";
    AppendJsonMicros(&out, span->start_ns);
    out += ", \"dur\": ";
    AppendJsonMicros(&out, span->duration_ns);
    out += ", \"pid\": 1, \"tid\": ";
    AppendJsonInt(&out, span->thread_index);
    out += ", \"args\": {\"id\": ";
    AppendJsonInt(&out, static_cast<std::int64_t>(span->id));
    out += ", \"parent\": ";
    AppendJsonInt(&out, static_cast<std::int64_t>(span->parent));
    out += "}}";
  }

  out += "\n  ]\n}\n";
  return out;
}

std::string RenderChromeTraceJson() {
  Tracer& tracer = Tracer::Global();
  return RenderChromeTraceJson(tracer.Snapshot(), tracer.dropped());
}

Status WriteChromeTrace(const std::string& path) {
  const std::string json = RenderChromeTraceJson();
  return WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    return Status::OK();
  });
}

}  // namespace dpcopula::obs
