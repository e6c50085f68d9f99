#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ppanns {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {
// The pool whose worker is executing on this thread: set for a worker's
// lifetime and for a ParallelFor caller while it runs chunks, null
// otherwise. A nested ParallelFor runs inline on the pool it is running
// inside — fanning out to a *different* pool stays parallel.
thread_local const ThreadPool* t_worker_pool = nullptr;

// One ParallelFor call's shared state. Helpers hold it by shared_ptr, so a
// helper that runs after the call has returned still has valid counters to
// look at; it dereferences `fn` (which lives in the caller's frame) only
// after claiming a chunk, and the caller does not return before every
// claimed chunk is done.
struct ChunkState {
  const std::function<void(std::size_t, std::size_t)>* fn;
  std::size_t n;
  std::size_t step;
  std::size_t chunks;
  std::atomic<std::size_t> next{0};  // next unclaimed chunk
  std::atomic<std::size_t> done{0};  // finished chunks
  std::mutex mu;
  std::condition_variable cv;

  // Claims and runs chunks until none are left. noexcept: an exception
  // escaping `fn` terminates here rather than unwinding the caller's frame
  // while helpers still run chunks that reference it.
  void RunChunks() noexcept {
    for (std::size_t c = next++; c < chunks; c = next++) {
      const std::size_t begin = c * step;
      (*fn)(begin, std::min(begin + step, n));
      if (++done == chunks) {
        // Taking the lock orders this notify after the caller either saw
        // the final count or started waiting, so the wake-up is never lost.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  void WaitDone() {
    if (done == chunks) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done == chunks; });
  }
};

}  // namespace

bool ThreadPool::InWorker() const { return t_worker_pool == this; }

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (t_worker_pool == this) {
    // Nested call: run inline, as the enclosing chunk's thread already
    // counts as one of this pool's workers.
    fn(0, n);
    return;
  }

  const std::size_t max_chunks = std::min(n, num_threads() * 4);
  const std::size_t step = (n + max_chunks - 1) / max_chunks;
  auto state = std::make_shared<ChunkState>();
  state->fn = &fn;
  state->n = n;
  state->step = step;
  state->chunks = (n + step - 1) / step;

  // The caller is one of the min(chunks, threads) runners; helpers that
  // start late find every chunk claimed and return at once.
  const std::size_t helpers = std::min(state->chunks, num_threads()) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->RunChunks(); });
  }

  // Run chunks as a worker of this pool, so InWorker() and every nested-call
  // rule behave as on a helper; restore the caller's own identity (it may be
  // a worker of another pool) afterwards.
  const ThreadPool* const saved = t_worker_pool;
  t_worker_pool = this;
  state->RunChunks();
  t_worker_pool = saved;
  state->WaitDone();
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace ppanns
