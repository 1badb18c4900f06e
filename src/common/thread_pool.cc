#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/logging.h"

namespace lan {

namespace {
/// Which pool (if any) owns the current thread. Lets ParallelFor detect
/// a call made from inside one of its own tasks and degrade to inline
/// execution instead of deadlocking on its own pool.
thread_local const ThreadPool* current_worker_pool = nullptr;

using Clock = std::chrono::steady_clock;

/// How long a ParallelFor caller whose items are all claimed polls for
/// its helpers before it sleeps. A few GED tiers or one cross-encoding
/// chunk (tens of microseconds) usually finish inside it.
constexpr std::chrono::microseconds kSpinBudget{50};
}  // namespace

/// One ParallelFor call, on its caller's stack. Helpers join it through
/// the pool's open list while it has open slots; the caller returns only
/// after every helper that joined has left, so no worker touches it later.
struct ThreadPool::Loop {
  Loop(const std::function<void(size_t)>& body, size_t count)
      : fn(body), n(count) {}

  const std::function<void(size_t)>& fn;
  const size_t n;
  std::atomic<size_t> next{0};  // the next unclaimed item
  // Written under the pool's mu_ (`helpers` is also read without it):
  size_t open_slots = 0;            // helpers still wanted
  std::atomic<size_t> helpers{0};  // helpers that joined and have not left
  Loop* next_open = nullptr;
  std::condition_variable helpers_left;

  /// Claims and runs items until none is left unclaimed.
  void Drain() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  }
};

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
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Unlink(Loop* loop) {
  Loop* prev = nullptr;
  for (Loop* l = open_head_; l != loop; l = l->next_open) prev = l;
  (prev == nullptr ? open_head_ : prev->next_open) = loop->next_open;
  if (open_tail_ == loop) open_tail_ = prev;
  loop->next_open = nullptr;
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(
        lock, [this] { return shutting_down_ || open_head_ != nullptr; });
    if (open_head_ == nullptr) return;  // shutting down
    Loop* loop = open_head_;
    if (--loop->open_slots == 0) Unlink(loop);
    ++loop->helpers;
    lock.unlock();
    loop->Drain();
    lock.lock();
    // Notified under mu_: the caller cannot see helpers == 0, return and
    // destroy the loop before this thread lets go of the mutex.
    if (--loop->helpers == 0) loop->helpers_left.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Inline when parallelism cannot help (1-thread pool, single iteration)
  // or must not be attempted (we are already on one of this pool's
  // workers, where blocking on our own pool would deadlock).
  if (current_worker_pool == this || workers_.size() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Loop loop(fn, n);
  // The calling thread is one of the shards.
  const size_t slots = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    LAN_CHECK(!shutting_down_);
    loop.open_slots = slots;
    (open_tail_ == nullptr ? open_head_ : open_tail_->next_open) = &loop;
    open_tail_ = &loop;
  }
  for (size_t i = 0; i < slots; ++i) work_available_.notify_one();
  loop.Drain();
  // Every item is claimed: withdraw the slots no worker has taken, then
  // wait for the helpers still running theirs. Their items are already
  // under way, so the wait starts with a short yielding spin, which keeps
  // a wake-up off the caller's path without holding a CPU a runnable
  // helper needs; past kSpinBudget it sleeps.
  std::unique_lock<std::mutex> lock(mu_);
  if (loop.open_slots > 0) {
    loop.open_slots = 0;
    Unlink(&loop);
  }
  if (loop.helpers.load(std::memory_order_relaxed) == 0) return;
  lock.unlock();
  const Clock::time_point until = Clock::now() + kSpinBudget;
  while (loop.helpers.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < until) {
    std::this_thread::yield();
  }
  lock.lock();  // the last helper may still hold mu_ to notify
  loop.helpers_left.wait(lock, [&] { return loop.helpers == 0; });
}

size_t DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace lan
