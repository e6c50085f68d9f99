// A small fixed-size thread pool: the process-wide executor for the parallel
// build passes (encryption, per-shard and intra-shard index construction,
// keygen QR blocks), ground-truth computation, and the serving path's
// scatter-gather (the per-(query, shard) filter items, the per-query
// merge + refine, and the hedged async dispatch).

#ifndef PPANNS_COMMON_THREAD_POOL_H_
#define PPANNS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppanns {

/// Fixed-size worker pool with a blocking Wait() for all submitted tasks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Enqueues a value-returning task and hands back its future — the
  /// building block of the async scatter-gather serving path, where the
  /// gather waits on per-(shard, replica) work items with a hedging
  /// deadline instead of a barrier. The callable runs exactly once on a
  /// worker; exceptions propagate through the future.
  template <typename F>
  auto Async(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Submit([task]() { (*task)(); });
    return future;
  }

  /// Blocks until every submitted task has finished.
  void Wait();

  /// True when the calling thread is one of *this* pool's workers. Blocking
  /// waits (future.wait, ParallelFor) from inside a worker can deadlock once
  /// every worker is the one waiting; callers use this to fall back to
  /// inline execution (ParallelFor does so automatically).
  bool InWorker() const;

  /// Splits [0, n) into contiguous chunks and runs `fn(begin, end)` on each,
  /// returning once all chunks complete. The caller is a worker for the
  /// call's duration: it claims and runs chunks itself beside at most
  /// min(chunks, num_threads()) - 1 helper tasks queued on the pool, and it
  /// waits only on chunks another thread has already claimed — never on a
  /// helper still sitting in the queue, so a call finishes even when every
  /// worker is busy elsewhere. A helper that starts after the last chunk is
  /// claimed finds nothing to do and never touches the caller's frame.
  /// Contract:
  ///  * n == 0 returns immediately without invoking `fn`;
  ///  * n <= 4 * num_threads() produces exactly n single-element chunks
  ///    (never an empty chunk);
  ///  * every chunk runs with InWorker() true, on the caller as on a helper,
  ///    so nested-call rules see one kind of thread; InWorker() is restored
  ///    on the caller when the call returns;
  ///  * completion is tracked per call, so concurrent ParallelFor calls from
  ///    different threads do not wait on each other's work;
  ///  * a call from inside a pool worker (or from inside a chunk) runs inline
  ///    on the calling thread;
  ///  * `fn` must not throw: an exception escaping a chunk terminates, as it
  ///    would on any worker.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  std::size_t num_threads() const { return workers_.size(); }

  /// A process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signals workers
  std::condition_variable done_cv_;   // signals Wait()
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace ppanns

#endif  // PPANNS_COMMON_THREAD_POOL_H_
