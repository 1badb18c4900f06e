#include "common/thread_pool.h"

#include <atomic>
#include <memory>

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
  // The loop state is shared with the submitted tasks, not held on this
  // stack: the call returns once all n items are done, which can be before
  // a worker has even started its task. Such a late task finds next >= n
  // and returns without touching `fn` or anything of the caller's.
  struct LoopState {
    std::atomic<size_t> next{0};
    size_t done = 0;  // finished items, guarded by mu
    std::mutex mu;
    std::condition_variable all_done;
  };
  const auto state = std::make_shared<LoopState>();
  const auto drain = [state, n, body = &fn] {
    size_t finished = 0;
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*body)(i);
      ++finished;
    }
    if (finished == 0) return;
    std::lock_guard<std::mutex> lock(state->mu);
    state->done += finished;
    if (state->done == n) state->all_done.notify_one();
  };
  const size_t shards = std::min(workers_.size() + 1, n);
  for (size_t t = 1; t < shards; ++t) Submit(drain);
  drain();  // the calling thread is one of the shards
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->done == n; });
}

size_t DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace lan
