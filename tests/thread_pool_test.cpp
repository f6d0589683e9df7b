// Thread-pool unit tests: task completion, caller participation through
// try_run_one, reuse across thousands of submits (no thread leak), and
// STAIR_THREADS sizing. This suite also runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace stair {
namespace {

// Kernel threads of this process as the OS sees them (linux /proc); 0 if
// unreadable. Lets the leak test check the process, not just pool internals.
std::size_t os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// Submits `count` tasks running `fn` and returns once all of them have run,
// helping drain the queue meanwhile the way Codec waits do.
void run_tasks(ThreadPool& pool, std::size_t count, const std::function<void()>& fn) {
  std::atomic<std::size_t> left{count};
  for (std::size_t i = 0; i < count; ++i)
    pool.submit([&] {
      fn();
      left.fetch_sub(1, std::memory_order_acq_rel);
    });
  while (left.load(std::memory_order_acquire) != 0)
    if (!pool.try_run_one()) std::this_thread::yield();
}

TEST(ThreadPool, ThousandsOfSubmitsReuseTheSameWorkers) {
  ThreadPool pool(4);
  const std::size_t before_os = os_thread_count();
  const std::size_t workers = pool.size();

  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 2000; ++round)
    run_tasks(pool, 8, [&] { total.fetch_add(1, std::memory_order_relaxed); });

  EXPECT_EQ(total.load(), 16000u);
  EXPECT_EQ(pool.size(), workers);  // worker set is fixed at construction
  // The stat is bumped after each task body returns, so it can trail the
  // in-task counter by the tasks still unwinding.
  while (pool.tasks_run() < 16000u) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_run(), 16000u);
  if (before_os != 0) {
    // No thread leak: the process thread count must not have grown with the
    // number of submits (tolerate unrelated runtime threads +/- a couple).
    EXPECT_LE(os_thread_count(), before_os + 2);
  }
}

TEST(ThreadPool, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  auto submitter = [&] {
    for (int round = 0; round < 200; ++round)
      run_tasks(pool, 16, [&] { total.fetch_add(1, std::memory_order_relaxed); });
  };
  std::thread a(submitter), b(submitter);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 200u * 16u);
}

TEST(ThreadPool, ResolveConcurrencyRule) {
  EXPECT_EQ(ThreadPool::resolve_concurrency("3", 8), 3u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("1", 8), 1u);
  EXPECT_EQ(ThreadPool::resolve_concurrency(nullptr, 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency(nullptr, 0), 1u);  // hw unknown
  EXPECT_EQ(ThreadPool::resolve_concurrency("0", 8), 8u);      // non-positive: fall back
  EXPECT_EQ(ThreadPool::resolve_concurrency("-2", 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("garbage", 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("12x", 8), 8u);    // trailing junk
  EXPECT_EQ(ThreadPool::resolve_concurrency("999999", 8), 1024u);  // clamped
}

TEST(ThreadPool, StairThreadsOverridesAutoSizing) {
  ::setenv("STAIR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ThreadPool pool;  // auto-sized: reads the override at construction
  EXPECT_EQ(pool.concurrency(), 3u);
  EXPECT_EQ(pool.size(), 2u);
  ::unsetenv("STAIR_THREADS");
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, DefaultPoolIsASingleton) {
  ThreadPool& a = ThreadPool::default_pool();
  ThreadPool& b = ThreadPool::default_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.concurrency(), 1u);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  constexpr std::size_t kTasks = 500;
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(4);  // declared last: it joins its workers before mu/cv go
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      ran.fetch_add(1);
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  {
    // Scoped: the last task may still be waiting for `mu` to notify, and it
    // must get it before the loop below can see its tasks_run bump.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load() == kTasks; });
  }
  EXPECT_EQ(ran.load(), kTasks);
  // The pool's stat is bumped after the task body returns, so it can trail
  // the in-task counter by the tasks still unwinding.
  while (pool.tasks_run() < kTasks) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_run(), kTasks);
}

TEST(ThreadPool, SubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(1);  // caller-only: no workers to hand the task to
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // ran before submit returned
  EXPECT_EQ(pool.tasks_run(), 1u);
  EXPECT_FALSE(pool.try_run_one());  // nothing was ever queued
}

TEST(ThreadPool, TryRunOneRunsQueuedTasksOnTheCaller) {
  std::mutex mu;
  std::condition_variable cv;
  bool worker_busy = false, release = false;
  ThreadPool pool(2);  // one worker, which the first task parks
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    worker_busy = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return worker_busy; });
  }
  // The only worker is held, so this task stays queued until the caller
  // takes it.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_EQ(ran_on, caller);
  EXPECT_FALSE(pool.try_run_one());  // queue drained
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  while (pool.tasks_run() < 2) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_run(), 2u);
}

}  // namespace
}  // namespace stair
