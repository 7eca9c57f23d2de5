#ifndef DPCOPULA_OBS_TRACE_EXPORT_H_
#define DPCOPULA_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace dpcopula::obs {

/// Renders spans in the Chrome trace-event JSON format (the "JSON Array
/// Format" with a top-level object), loadable in Perfetto / chrome://tracing:
///
///   {
///     "displayTimeUnit": "ms",
///     "otherData": {"tool": "dpcopula", "dropped_spans": "0"},
///     "traceEvents": [
///       {"name": "process_name", "ph": "M", "pid": 1,
///        "args": {"name": "dpcopula"}},
///       {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
///        "args": {"name": "thread-0"}},
///       {"name": "synthesize", "cat": "dpcopula", "ph": "X",
///        "ts": 12.345, "dur": 6789.012, "pid": 1, "tid": 0,
///        "args": {"id": 1, "parent": 0}},
///       ...
///     ]
///   }
///
/// One complete ("ph":"X") event per finished span; "ts"/"dur" are
/// microseconds since the tracer epoch with nanosecond precision; "tid" is
/// the recording thread's dense obs thread index, so pool workers render
/// as separate tracks. Events are emitted sorted by (ts, id) — Perfetto
/// requires no order, but determinism keeps the export testable. An empty
/// trace renders the envelope with only the process metadata event.
std::string RenderChromeTraceJson(const std::vector<SpanRecord>& spans,
                                  std::int64_t dropped_spans);

/// Snapshot of the global tracer, rendered as above.
std::string RenderChromeTraceJson();

/// Renders the global tracer's spans and replaces `path` with them
/// atomically (WriteFileAtomic).
Status WriteChromeTrace(const std::string& path);

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_TRACE_EXPORT_H_
