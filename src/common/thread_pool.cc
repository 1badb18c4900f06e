#include "common/thread_pool.h"

#include <atomic>

#include "common/logging.h"

namespace lan {

namespace {
/// Which pool (if any) owns the current thread. Lets ParallelFor detect
/// a call made from inside one of its own tasks and degrade to inline
/// execution instead of deadlocking on its own queue.
thread_local const ThreadPool* current_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  LAN_CHECK_GT(num_threads, 0u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    LAN_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Inline when parallelism cannot help (1-thread pool, single iteration)
  // or must not be attempted (we are already on one of this pool's
  // workers, where blocking on our own queue would deadlock).
  if (current_worker_pool == this || workers_.size() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t shards = std::min(workers_.size() + 1, n);
  std::atomic<size_t> next{0};
  const auto drain = [&next, n, &fn] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  // `pending` is guarded by `done_mu` (not an atomic): the caller can only
  // observe 0 while holding the lock, i.e. after the last worker released
  // it, so no worker can still be touching the stack-allocated mu/cv when
  // the caller returns and destroys them.
  size_t pending = shards - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t t = 1; t < shards; ++t) {
    Submit([&drain, &pending, &done_mu, &done_cv] {
      drain();
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  drain();  // the calling thread is one of the shards
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&pending] { return pending == 0; });
}

void ThreadPool::ParallelFor(size_t n, size_t num_threads,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

size_t DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace lan
