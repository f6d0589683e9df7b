#include "util/thread_pool.h"

#include <cstdlib>

namespace stair {

std::size_t ThreadPool::resolve_concurrency(const char* env_value, std::size_t hardware) {
  if (hardware == 0) hardware = 1;
  if (env_value) {
    char* end = nullptr;
    const long v = std::strtol(env_value, &end, 10);
    if (end != env_value && *end == '\0' && v > 0) {
      // Backstop against typos like STAIR_THREADS=10000 starving the system.
      constexpr long kMax = 1024;
      return static_cast<std::size_t>(v < kMax ? v : kMax);
    }
  }
  return hardware;
}

std::size_t ThreadPool::default_concurrency() {
  return resolve_concurrency(std::getenv("STAIR_THREADS"),
                             std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::default_pool() {
  static ThreadPool pool(default_concurrency());
  return pool;
}

ThreadPool::ThreadPool(std::size_t concurrency) {
  if (concurrency == 0) concurrency = default_concurrency();
  workers_.reserve(concurrency - 1);
  for (std::size_t i = 0; i + 1 < concurrency; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run(std::function<void()>& task) {
  task();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run(task);
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  if (workers_.empty()) {
    run(fn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  run(task);
  return true;
}

}  // namespace stair
