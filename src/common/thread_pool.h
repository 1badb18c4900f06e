#ifndef LAN_COMMON_THREAD_POOL_H_
#define LAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lan {

/// \brief Fixed-size worker pool used for offline work (PG construction
/// distances, ground-truth computation, model training data generation),
/// for the distances of online inserts, and inside one query: the GED
/// upper-bound tiers of each batch of distances (one item per pair and
/// tier, see GedComputer::ComputeBatch) and the candidate chunks of each
/// cross-encoding pass. Work runs only through ParallelFor, which returns
/// when its range is done.
///
/// The paper's QPS is a per-thread measure; an index whose pool has one
/// worker runs every query on its calling thread alone and reproduces it.
/// Query-time fan-out never changes a result: each item writes only its
/// own output, and the caller combines them in a fixed order.
///
/// A ParallelFor allocates nothing: its loop state lives on the caller's
/// stack, and workers find it through an intrusive list of open loops.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) on the pool's workers and returns once all
  /// iterations finish. The calling thread drains iterations too, and once
  /// none is left unclaimed it withdraws the helper slots no worker has
  /// taken yet, so it never waits for a worker that has not started (busy
  /// with other callers' work, or not yet awake). Safe to call from inside
  /// a pool task: that is detected via a thread-local and the loop runs
  /// inline, because a worker blocking on its own pool would deadlock.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct Loop;

  void WorkerLoop();
  /// Removes `loop` from the open list (caller holds mu_).
  void Unlink(Loop* loop);

  std::vector<std::thread> workers_;
  // Loops with helper slots still open, oldest first; guarded by mu_.
  Loop* open_head_ = nullptr;
  Loop* open_tail_ = nullptr;
  std::mutex mu_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
};

/// Runs fn(i) for i in [0, n) on `pool` (see ThreadPool::ParallelFor), or
/// inline in index order when `pool` is null. `fn` is passed by reference,
/// so neither path allocates.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, std::cref(fn));
}

/// Number of hardware threads, at least 1.
size_t DefaultThreadCount();

}  // namespace lan

#endif  // LAN_COMMON_THREAD_POOL_H_
