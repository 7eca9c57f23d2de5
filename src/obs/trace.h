#ifndef DPCOPULA_OBS_TRACE_H_
#define DPCOPULA_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/log.h"

namespace dpcopula::obs {

class Histogram;

/// Identifier of a recorded span; 0 means "no span".
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One finished span. start_ns is relative to the tracer epoch (the last
/// Reset(), steady clock); wall_start_unix_ms places the start on the wall
/// clock, read once per epoch, for human consumption.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::int64_t wall_start_unix_ms = 0;
  int thread_index = 0;
};

/// Process-wide collector of finished spans. Span records are appended
/// under a mutex when a named Span destructs; the volume rule (see Span)
/// keeps the lock out of every per-row, per-tile and per-request loop. The
/// buffer is capped (kMaxSpans) so a pathological run cannot grow without
/// bound — overflow is counted and reported instead of recorded.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 16;

  static Tracer& Global();

  /// Drops all recorded spans and restarts the epoch.
  void Reset();

  /// Copies out every finished span (in finish order).
  std::vector<SpanRecord> Snapshot() const;

  /// Spans dropped because the buffer was full.
  std::int64_t dropped() const;

 private:
  friend class Span;
  Tracer();

  SpanId NextId();
  void Record(SpanRecord record);

  struct Impl;
  Impl* impl_;
};

namespace internal {
/// Innermost active span on this thread (kNoSpan outside any span).
SpanId CurrentSpan();
SpanId ExchangeCurrentSpan(SpanId id);
}  // namespace internal

/// RAII timing scope, the one timer of the library. One pair of
/// steady-clock reads times the scope and feeds up to two sinks:
///
///  - a name: while tracing is on, a SpanRecord in the Tracer (the run
///    report's span tree and the Chrome trace);
///  - a Histogram: while metrics are on, one observation of the same
///    duration in integer nanoseconds.
///
/// The name is a string with static storage (a literal) plus an optional
/// index, rendered "name[index]" only when a record is made. A scope whose
/// sinks are both off costs at most two relaxed atomic loads: no clock is
/// read and nothing is allocated. Under -DDPCOPULA_OBS=OFF it compiles to
/// nothing.
///
/// Named spans nest via a thread-local "current span": one constructed
/// while another is active on the same thread becomes its child. Work
/// fanned out to pool workers does not inherit the caller's thread-local,
/// so cross-thread children pass the parent handle explicitly:
///
///   obs::Span phase("hybrid.synthesize");
///   const obs::SpanId parent = phase.id();
///   ParallelFor(..., [&](std::size_t b, std::size_t e) {
///     for (std::size_t p = b; p < e; ++p) {
///       obs::Span part("hybrid.partition", p, parent, partition_seconds);
///       ...
///     }
///   });
///
/// Volume rule: a scope gets a name only where it fires at most once per
/// phase, column, pair or partition of a call. Per-tile, per-shard and
/// per-request scopes pass a histogram alone, so the number of records
/// depends on the schema, never on the row or request count, and the
/// kMaxSpans cap is not reached by a large release or a long-lived daemon.
class Span {
 public:
  /// Histogram only: times the scope into `histogram`, records no span.
  explicit Span(Histogram* histogram)
      : Span(nullptr, kNoIndex, kUseThreadLocal, histogram) {}
  /// A child of this thread's current span.
  explicit Span(const char* name, Histogram* histogram = nullptr)
      : Span(name, kNoIndex, kUseThreadLocal, histogram) {}
  /// A child of `parent` (kNoSpan: a root).
  Span(const char* name, SpanId parent, Histogram* histogram = nullptr)
      : Span(name, kNoIndex, parent, histogram) {}
  /// Recorded as "name[index]", a child of `parent`.
  Span(const char* name, std::size_t index, SpanId parent,
       Histogram* histogram = nullptr) {
#if DPCOPULA_OBS_ENABLED
    if (histogram != nullptr && MetricsEnabled()) histogram_ = histogram;
    if (name != nullptr && TraceEnabled()) Begin(name, index, parent);
    if (histogram_ != nullptr || id_ != kNoSpan) {
      start_ = std::chrono::steady_clock::now();
    }
#else
    (void)name;
    (void)index;
    (void)parent;
    (void)histogram;
#endif
  }
  ~Span() {
#if DPCOPULA_OBS_ENABLED
    if (histogram_ != nullptr || id_ != kNoSpan) Finish();
#endif
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Handle for explicit cross-thread parenting; kNoSpan when not traced.
  SpanId id() const { return id_; }

 private:
  static constexpr std::size_t kNoIndex = ~std::size_t{0};
  // Sentinel distinguishing "use the thread-local current span" from a
  // real (possibly kNoSpan) explicit parent.
  static constexpr SpanId kUseThreadLocal = ~SpanId{0};

  void Begin(const char* name, std::size_t index, SpanId parent);
  void Finish();

  const char* name_ = nullptr;
  std::size_t index_ = kNoIndex;
  Histogram* histogram_ = nullptr;  // Null unless metrics were on.
  SpanId id_ = kNoSpan;             // kNoSpan unless tracing was on.
  SpanId parent_ = kNoSpan;
  SpanId saved_current_ = kNoSpan;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_TRACE_H_
