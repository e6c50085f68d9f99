// ParallelFor hardening: edge cases (n = 0, n < num_threads, uneven
// chunking), per-call completion isolation, nested fan-out, and the
// caller-runs contract (the caller works through the chunks itself, never
// waits on a queued helper, and runs them as a worker) — the combinations the
// sharded build and scatter-gather serving paths exercise.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace ppanns {
namespace {

TEST(ParallelForTest, ZeroElementsNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, FewerElementsThanThreadsCoversEachIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);  // no empty chunks
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, UnevenChunkingCoversEachIndexOnce) {
  // 3 threads -> at most 12 chunks over 100 elements: step 9 leaves a final
  // chunk of 1, the uneven tail case.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedCallDoesNotDeadlock) {
  // Outer fan-out saturates the pool; each task fans out again. The nested
  // calls must run inline instead of waiting on workers that are all busy
  // waiting themselves.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.ParallelFor(10, [&](std::size_t b, std::size_t e) {
        inner_total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ParallelForTest, ConcurrentCallersDoNotCrossWait) {
  // Two external threads drive independent ParallelFor calls on one pool;
  // each must see exactly its own range completed.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(64), b(64);
  std::thread ta([&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(a.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++a[i];
      });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(b.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++b[i];
      });
    }
  });
  ta.join();
  tb.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 20);
  for (const auto& h : b) EXPECT_EQ(h.load(), 20);
}

// A gate the pool's workers can be parked on.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ParallelForTest, FinishesWhileEveryWorkerIsBlocked) {
  // Both workers are parked, so every helper the call queues sits behind
  // them; the caller must run all chunks itself instead of waiting on
  // helpers that cannot start.
  ThreadPool pool(2);
  Gate gate;
  std::atomic<int> parked{0};
  for (std::size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([&] {
      ++parked;
      gate.Wait();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(8);
  std::packaged_task<void()> call([&] {
    pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
  });
  std::future<void> finished = call.get_future();
  std::thread caller(std::move(call));
  const bool done =
      finished.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.Open();  // on timeout this lets the queued helpers finish the call
  caller.join();
  pool.Wait();
  ASSERT_TRUE(done) << "ParallelFor waited on helpers queued behind "
                       "blocked workers";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EveryChunkRunsAsWorker) {
  ThreadPool pool(3);
  std::atomic<int> chunks{0}, as_worker{0};
  pool.ParallelFor(60, [&](std::size_t, std::size_t) {
    ++chunks;
    if (pool.InWorker()) ++as_worker;
  });
  EXPECT_EQ(chunks.load(), 12);  // 60 elements in min(60, 4 * 3) chunks
  EXPECT_EQ(as_worker.load(), chunks.load());
  EXPECT_FALSE(pool.InWorker());

  // A single chunk has no helper at all and still runs as a worker.
  bool single_as_worker = false;
  pool.ParallelFor(1, [&](std::size_t, std::size_t) {
    single_as_worker = pool.InWorker();
  });
  EXPECT_TRUE(single_as_worker);
  EXPECT_FALSE(pool.InWorker());
}

TEST(ParallelForTest, CallerOfAnotherPoolKeepsItsIdentity) {
  // A worker of `outer` fans out on `inner`: inside the chunks it counts as
  // an inner worker, and afterwards it is an outer worker again.
  ThreadPool outer(1), inner(2);
  std::atomic<bool> chunk_ok{true};
  std::future<bool> restored = outer.Async([&] {
    inner.ParallelFor(8, [&](std::size_t, std::size_t) {
      if (!inner.InWorker()) chunk_ok = false;
    });
    return outer.InWorker() && !inner.InWorker();
  });
  EXPECT_TRUE(restored.get());
  EXPECT_TRUE(chunk_ok.load());
}

TEST(ParallelForTest, BackToBackCallsWithLateHelpers) {
  // Trivial two-chunk bodies: the caller usually claims both chunks before
  // the helper wakes, so the helper runs after the call's frame is gone.
  // Under ASan/TSan a helper that touched the frame would show up here.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int call = 0; call < 10000; ++call) {
    std::size_t local = 0;
    pool.ParallelFor(2, [&](std::size_t begin, std::size_t end) {
      total += end - begin;
      if (begin == 0) local = 1;
    });
    ASSERT_EQ(local, 1u);
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 20000u);
}

}  // namespace
}  // namespace ppanns
