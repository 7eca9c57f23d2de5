#ifndef DPCOPULA_COMMON_PARALLEL_H_
#define DPCOPULA_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace dpcopula {

/// Number of hardware threads (always >= 1; hardware_concurrency() may
/// report 0 on exotic platforms).
int HardwareThreads();

/// Maps the user-facing `num_threads` knob to an effective worker count:
/// 0 selects HardwareThreads(), anything below 1 clamps to 1 (sequential),
/// larger values are taken literally.
int ResolveNumThreads(int requested);

/// A fixed-size thread pool with a plain FIFO queue (no work stealing —
/// every task in this library is a coarse shard, so a single shared queue
/// is contention-free in practice). The pool is lazily created on first
/// use and sized from HardwareThreads(). Run may be called from inside a
/// pool task (hybrid partitions that themselves fit and sample): the
/// nested loop fans out to idle workers through the same queue, and it
/// cannot deadlock, because Run's caller claims every task nobody has
/// started before it waits (DESIGN.md §4b).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const;

  /// The process-wide pool, created on first call with HardwareThreads()
  /// workers.
  static ThreadPool& Global();

  /// Runs task(0) .. task(num_tasks - 1), at most `max_parallelism` at a
  /// time (the calling thread participates), and returns when all have
  /// finished. Tasks must not throw. The assignment of tasks to threads is
  /// unspecified — callers needing determinism must make each task's
  /// output independent of scheduling (see ParallelForSharded).
  void Run(std::size_t num_tasks, int max_parallelism,
           const std::function<void(std::size_t)>& task);

 private:
  struct Impl;
  Impl* impl_;
};

/// A contiguous index shard [begin, end).
struct Shard {
  std::size_t begin;
  std::size_t end;
};

/// Deterministic shard decomposition of [begin, end): successive shards of
/// at most `grain` indices. Depends only on the range and grain — never on
/// the thread count — which is what makes sharded execution reproducible.
std::vector<Shard> MakeShards(std::size_t begin, std::size_t end,
                              std::size_t grain);

/// Runs fn(shard_begin, shard_end) over the deterministic shards of
/// [begin, end) using up to ResolveNumThreads(num_threads) threads from
/// the global pool. `fn` must only touch state owned by its shard.
/// Sequential (and allocation-free) when the effective thread count is 1
/// or the range fits one shard.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn,
                 int num_threads);

/// RNG-split sharded variant: pre-derives one child generator per shard
/// from `*rng` (in shard order — this advances the parent exactly
/// shard-count states), then runs fn(shard_begin, shard_end, &shard_rng)
/// on the pool. Because the shard decomposition and the split order are
/// fixed, the combined output is bit-identical for every thread count,
/// including 1. This is the contract the Kendall estimator pioneered,
/// promoted to a library primitive.
void ParallelForSharded(
    std::size_t begin, std::size_t end, std::size_t grain, Rng* rng,
    const std::function<void(std::size_t, std::size_t, Rng*)>& fn,
    int num_threads);

}  // namespace dpcopula

#endif  // DPCOPULA_COMMON_PARALLEL_H_
