#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace dpcopula {

namespace {

// Pool observability. Everything is per-Run/per-call granularity (no
// per-task-element updates), so the counters cost nothing measurable even
// with metrics enabled.
struct PoolMetrics {
  obs::Counter* pool_runs;        // Run() calls that actually fanned out.
  obs::Counter* inline_runs;      // Run()/ParallelFor calls executed inline.
  obs::Counter* pool_tasks;       // Tasks executed across all Run() calls.
  obs::Counter* shards;           // Shards created by ParallelFor*().
  obs::Counter* rng_splits;       // Shard RNG streams pre-derived.
  obs::Counter* dispatch_fallbacks;  // Pool dispatch failed -> ran inline.
  obs::Gauge* queue_depth;        // Queue length right after an enqueue.
};

PoolMetrics& Metrics() {
  static PoolMetrics m = {
      obs::MetricsRegistry::Global().GetCounter("parallel.pool_runs"),
      obs::MetricsRegistry::Global().GetCounter("parallel.inline_runs"),
      obs::MetricsRegistry::Global().GetCounter("parallel.pool_tasks"),
      obs::MetricsRegistry::Global().GetCounter("parallel.shards"),
      obs::MetricsRegistry::Global().GetCounter("parallel.rng_splits"),
      obs::MetricsRegistry::Global().GetCounter(
          "parallel.dispatch_fallbacks"),
      obs::MetricsRegistry::Global().GetGauge("parallel.queue_depth"),
  };
  return m;
}

}  // namespace

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ResolveNumThreads(int requested) {
  if (requested == 0) return HardwareThreads();
  return std::max(1, requested);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stop = false;

  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      job();
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl) {
  const int n = std::max(1, num_threads);
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

int ThreadPool::num_workers() const {
  return static_cast<int>(impl_->workers.size());
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: workers must outlive every static destructor that
  // could conceivably submit work during shutdown.
  static ThreadPool* pool = new ThreadPool(HardwareThreads());
  return *pool;
}

void ThreadPool::Run(std::size_t num_tasks, int max_parallelism,
                     const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  const int parallelism =
      std::min<int>(std::max(1, max_parallelism),
                    static_cast<int>(std::min<std::size_t>(
                        num_tasks, static_cast<std::size_t>(
                                       num_workers() + 1))));
  if (parallelism <= 1 || num_tasks == 1) {
    if (obs::MetricsEnabled()) {
      Metrics().inline_runs->Increment();
      Metrics().pool_tasks->Add(static_cast<std::int64_t>(num_tasks));
    }
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  if (obs::MetricsEnabled()) {
    Metrics().pool_runs->Increment();
    Metrics().pool_tasks->Add(static_cast<std::int64_t>(num_tasks));
  }

  struct RunState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total;
    std::mutex mu;
    std::condition_variable cv;
    const std::function<void(std::size_t)>* task;
  };
  auto state = std::make_shared<RunState>();
  state->total = num_tasks;
  state->task = &task;  // Caller blocks below, so the reference stays valid.

  auto drain = [](const std::shared_ptr<RunState>& s) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1);
      if (i >= s->total) break;
      (*s->task)(i);
      if (s->done.fetch_add(1) + 1 == s->total) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (int h = 0; h < parallelism - 1; ++h) {
      impl_->queue.emplace_back([state, drain] { drain(state); });
    }
    Metrics().queue_depth->Set(static_cast<double>(impl_->queue.size()));
  }
  impl_->cv.notify_all();

  // The caller claims tasks too, until none is left unstarted, so it only
  // ever waits on tasks that other threads are running. That is what makes
  // a Run issued from inside a pool task deadlock-free: its helpers may sit
  // in the queue behind busy workers, but the caller does their share.
  drain(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock,
                 [&] { return state->done.load() == state->total; });
}

std::vector<Shard> MakeShards(std::size_t begin, std::size_t end,
                              std::size_t grain) {
  std::vector<Shard> shards;
  if (begin >= end) return shards;
  const std::size_t g = std::max<std::size_t>(1, grain);
  shards.reserve((end - begin + g - 1) / g);
  for (std::size_t lo = begin; lo < end; lo += g) {
    shards.push_back({lo, std::min(end, lo + g)});
  }
  return shards;
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn,
                 int num_threads) {
  if (begin >= end) return;
  const int threads = ResolveNumThreads(num_threads);
  const std::size_t g = std::max<std::size_t>(1, grain);
  if (threads <= 1 || end - begin <= g) {
    if (obs::MetricsEnabled()) {
      Metrics().inline_runs->Increment();
      Metrics().shards->Add(
          static_cast<std::int64_t>((end - begin + g - 1) / g));
    }
    // Single shard-sized chunks keep cache behaviour identical to the
    // parallel path (same loop bounds per call).
    for (std::size_t lo = begin; lo < end; lo += g) {
      fn(lo, std::min(end, lo + g));
    }
    return;
  }
  const std::vector<Shard> shards = MakeShards(begin, end, g);
  if (obs::MetricsEnabled()) {
    Metrics().shards->Add(static_cast<std::int64_t>(shards.size()));
  }
  // Graceful degradation: if pool dispatch fails (injected here; a real
  // analogue is thread exhaustion), drain the shards sequentially on the
  // caller. Shard bounds are already fixed, so the output is identical —
  // only wall-clock suffers.
  if (DPC_FAILPOINT("parallel.dispatch")) {
    Metrics().dispatch_fallbacks->Increment();
    for (const Shard& s : shards) fn(s.begin, s.end);
    return;
  }
  ThreadPool::Global().Run(
      shards.size(), threads,
      [&](std::size_t i) { fn(shards[i].begin, shards[i].end); });
}

void ParallelForSharded(
    std::size_t begin, std::size_t end, std::size_t grain, Rng* rng,
    const std::function<void(std::size_t, std::size_t, Rng*)>& fn,
    int num_threads) {
  if (begin >= end) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t num_shards = (end - begin + g - 1) / g;
  // Split in shard order before any task runs: the parent RNG advances by
  // exactly num_shards states and every shard's stream is fixed no matter
  // how ParallelFor later schedules (or sequentially drains) the shards.
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shard_rngs.push_back(rng->Split());
  }
  if (obs::MetricsEnabled()) {
    Metrics().rng_splits->Add(static_cast<std::int64_t>(num_shards));
  }
  ParallelFor(
      begin, end, g,
      [&](std::size_t lo, std::size_t hi) {
        fn(lo, hi, &shard_rngs[(lo - begin) / g]);
      },
      num_threads);
}

}  // namespace dpcopula
