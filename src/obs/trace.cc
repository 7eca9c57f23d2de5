#include "obs/trace.h"

#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace dpcopula::obs {

namespace internal {
namespace {
thread_local SpanId t_current_span = kNoSpan;
}  // namespace

SpanId CurrentSpan() { return t_current_span; }

SpanId ExchangeCurrentSpan(SpanId id) {
  const SpanId prev = t_current_span;
  t_current_span = id;
  return prev;
}
}  // namespace internal

namespace {
std::int64_t SteadyNanos(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::int64_t SteadyNowNanos() {
  return SteadyNanos(std::chrono::steady_clock::now());
}

std::int64_t UnixNowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

struct Tracer::Impl {
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int64_t> dropped{0};
  // The current epoch on the steady clock and on the wall clock; atomic
  // so Reset() can race with finishing spans without a TSan report
  // (observability tolerates a torn epoch, the release never depends on
  // it).
  std::atomic<std::int64_t> epoch_nanos{SteadyNowNanos()};
  std::atomic<std::int64_t> epoch_unix_ms{UnixNowMillis()};
  mutable std::mutex mu;
  std::vector<SpanRecord> records;
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::Global() {
  // Leaked on purpose, like the thread pool: spans may finish during
  // static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->records.clear();
  impl_->dropped.store(0, std::memory_order_relaxed);
  impl_->next_id.store(1, std::memory_order_relaxed);
  impl_->epoch_nanos.store(SteadyNowNanos(), std::memory_order_relaxed);
  impl_->epoch_unix_ms.store(UnixNowMillis(), std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records;
}

std::int64_t Tracer::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

SpanId Tracer::NextId() {
  return impl_->next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(SpanRecord record) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->records.size() < kMaxSpans) {
      impl_->records.push_back(std::move(record));
      return;
    }
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  // Surface the overflow where dashboards already look. Outside the span
  // lock: GetCounter takes the registry mutex on first use.
  static Counter* dropped_counter =
      MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  dropped_counter->Increment();
}

void Span::Begin(const char* name, std::size_t index, SpanId parent) {
  name_ = name;
  index_ = index;
  id_ = Tracer::Global().NextId();
  parent_ = parent == kUseThreadLocal ? internal::CurrentSpan() : parent;
  saved_current_ = internal::ExchangeCurrentSpan(id_);
}

void Span::Finish() {
  const std::int64_t duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  if (histogram_ != nullptr) histogram_->ObserveNanos(duration_ns);
  if (id_ == kNoSpan) return;
  internal::ExchangeCurrentSpan(saved_current_);
  Tracer& tracer = Tracer::Global();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  if (index_ != kNoIndex) {
    record.name += '[';
    record.name += std::to_string(index_);
    record.name += ']';
  }
  record.start_ns = SteadyNanos(start_) - tracer.impl_->epoch_nanos.load(
                                              std::memory_order_relaxed);
  record.duration_ns = duration_ns;
  record.wall_start_unix_ms =
      tracer.impl_->epoch_unix_ms.load(std::memory_order_relaxed) +
      record.start_ns / 1000000;
  record.thread_index = internal::ThreadIndex();
  tracer.Record(std::move(record));
}

}  // namespace dpcopula::obs
