#ifndef LAN_COMMON_THREAD_POOL_H_
#define LAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lan {

/// \brief Fixed-size worker pool used for offline work (PG construction
/// distances, ground-truth computation, model training data generation)
/// and for the distances of online inserts. Work runs only through
/// ParallelFor, which returns when its range is done.
///
/// Query-time code paths are single-threaded on purpose: QPS in the paper is
/// a per-query latency measure.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) on the pool's workers and returns once all
  /// iterations finish, even if some worker has not yet started (busy with
  /// other callers' work); the calling thread drains iterations too, so no
  /// capacity is wasted on a blocked parent. Safe to call from inside a
  /// pool task: that is detected via a thread-local and the loop runs
  /// inline, because a worker blocking on its own pool's queue would
  /// deadlock.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

/// Number of hardware threads, at least 1.
size_t DefaultThreadCount();

}  // namespace lan

#endif  // LAN_COMMON_THREAD_POOL_H_
