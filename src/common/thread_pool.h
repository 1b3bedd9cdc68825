// Fixed-size thread pool. Logical cluster nodes (executors, PS shards) are
// multiplexed over this pool; node identity is passed explicitly, never via
// thread-locals.
//
// The process-wide pool (GlobalThreadPool) backs the real parallel
// execution engine: Dataset actions fan partitions out per executor,
// RpcFabric::CallParallel overlaps handler dispatch, and benches sweep the
// effective parallelism. The *logical* parallelism is a separate knob
// (Get/SetGlobalParallelism, env PSGRAPH_THREADS): at parallelism 1 every
// engine runs on the calling thread — CI uses that to prove the
// simulated-clock math is identical with and without real threads.

#ifndef PSGRAPH_COMMON_THREAD_POOL_H_
#define PSGRAPH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace psgraph {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion. An exception
  /// thrown by `fn` is captured and rethrown from future::get().
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [0, n) across the pool and waits for all of them
  /// to finish. The calling thread participates in the work, so this is
  /// safe to call from inside a pool task (no thread-starvation deadlock)
  /// and degenerates to an inline loop on a saturated or single-thread
  /// pool. If any invocation throws, the first captured exception is
  /// rethrown after every invocation has completed.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Like ParallelFor but caps the number of pool helpers at
  /// `max_helpers` (the caller still participates); used to emulate a
  /// smaller pool for parallelism sweeps.
  void ParallelForBounded(size_t n, size_t max_helpers,
                          const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// The process-wide pool, created on first use with
/// max(hardware_concurrency, 2) workers (so concurrency paths are
/// exercised even on single-core hosts). Never touched when the global
/// parallelism is 1.
ThreadPool& GlobalThreadPool();

/// Effective engine parallelism. Initialized from the PSGRAPH_THREADS
/// environment variable when set (clamped to >= 1), otherwise from
/// std::thread::hardware_concurrency(). 1 means strictly sequential
/// execution on the calling thread.
size_t GlobalParallelism();

/// Overrides the effective parallelism at runtime (benches sweep 1/2/4/8
/// in one process). `n == 0` restores the PSGRAPH_THREADS/hardware
/// default.
void SetGlobalParallelism(size_t n);

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_THREAD_POOL_H_
