// Persistent worker-thread pool — a plain task queue.
//
// Workers are created once, parked on a condition variable, and reused by
// every task in the process, so a stripe job never pays thread creation and
// teardown (tens of microseconds each). The model is deliberately simple: no
// work stealing, no futures. submit() enqueues a one-shot task; a thread
// about to block on a task's completion calls try_run_one() to run queued
// work itself instead of parking, so `concurrency()` counts the workers plus
// that one helping caller. The Codec (stair/codec.h) is the one client that
// splits a stripe into tasks; this layer knows nothing about stripes.
//
// Sizing: the process-wide default_pool() is sized from
// hardware_concurrency(), overridable with STAIR_THREADS=<n> (total
// concurrency including the caller). Tests construct private pools.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stair {

class ThreadPool {
 public:
  /// `concurrency` = total participants (workers + one helping caller), so a
  /// ThreadPool(4) spawns 3 workers. 0 resolves the process default:
  /// STAIR_THREADS if set and positive, else hardware_concurrency().
  explicit ThreadPool(std::size_t concurrency = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (constant for the pool's lifetime).
  std::size_t size() const { return workers_.size(); }
  /// size() + 1: a waiting caller helps through try_run_one().
  std::size_t concurrency() const { return workers_.size() + 1; }

  /// Enqueues `fn` to run once on a pool worker and returns immediately —
  /// the primitive the Codec stripe pipeline builds completion handles on.
  /// The caller does NOT
  /// automatically participate (completion signalling is the submitter's
  /// business); a caller that would otherwise block should spin try_run_one()
  /// to contribute its core, which is how Codec waits keep submit-based
  /// pipelines at full concurrency(). On a pool with zero workers
  /// (concurrency 1) `fn` runs inline before returning, so pipelines degrade
  /// to synchronous execution instead of deadlocking. Tasks still queued at
  /// destruction are drained by the workers before they exit. `fn` must not
  /// let exceptions escape (they would terminate the worker); wrap the body
  /// if it can throw.
  void submit(std::function<void()> fn);

  /// Pops and runs one queued submit() task on the calling thread. Returns
  /// false when nothing was queued. This is the caller-participation
  /// primitive for code waiting on submit()-based completions: an
  /// about-to-block thread is an idle core, so it helps drain the queue
  /// instead of parking.
  bool try_run_one();

  /// Total submit() tasks that have finished running (pool-lifetime stat;
  /// tests count a job's tasks by its delta).
  std::uint64_t tasks_run() const { return tasks_run_.load(std::memory_order_relaxed); }

  /// The process-wide shared pool (created on first use, default-sized).
  static ThreadPool& default_pool();

  /// The concurrency default_pool() is (or would be) created with:
  /// STAIR_THREADS if set and positive, else hardware_concurrency(), min 1.
  /// Reads the environment on every call; default_pool() snapshots it once.
  static std::size_t default_concurrency();

  /// Pure resolution rule behind default_concurrency(), exposed for tests:
  /// parse `env_value` (may be null); positive values win, anything else
  /// falls back to `hardware` (itself floored at 1).
  static std::size_t resolve_concurrency(const char* env_value, std::size_t hardware);

 private:
  void worker_loop();
  void run(std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_run_{0};
};

}  // namespace stair
