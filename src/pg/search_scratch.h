#ifndef LAN_PG_SEARCH_SCRATCH_H_
#define LAN_PG_SEARCH_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace lan {

/// \brief Epoch-stamped dense map GraphId -> double. Backing arrays are
/// sized once to the id universe and never shrink; `Reset` is O(1) (bump
/// the epoch), so a per-query cache costs no allocation and no clearing
/// after the first query on a thread.
///
/// Must be `Reset` before first use after construction.
class StampedDoubleMap {
 public:
  /// Starts a new generation covering ids [0, n). Amortized O(1): only
  /// grows the arrays when `n` exceeds every previous generation.
  void Reset(int64_t n) {
    if (static_cast<size_t>(n) > stamps_.size()) {
      stamps_.resize(static_cast<size_t>(n), 0);
      values_.resize(static_cast<size_t>(n));
    }
    if (++epoch_ == 0) {
      // Stamp wrap-around (once per 2^32 generations): invalidate all.
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  const double* Find(GraphId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < stamps_.size() && stamps_[i] == epoch_ ? &values_[i] : nullptr;
  }

  /// Precondition: id < n of the last Reset and not already present.
  void Insert(GraphId id, double value) {
    const size_t i = static_cast<size_t>(id);
    stamps_[i] = epoch_;
    values_[i] = value;
  }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<double> values_;
  uint32_t epoch_ = 0;
};

/// \brief Per-query routing state of the PG nodes (the `G.explored` flag
/// of Algorithms 1-4 plus its timestamp), stored as an epoch-stamped dense
/// array instead of the former `std::unordered_map<GraphId,
/// RouteNodeState>`: O(1) queries with no hashing, O(1) reset, zero
/// steady-state allocations. Must be `Reset` before first use.
class RouteStateArray {
 public:
  /// Starts a new query covering ids [0, n).
  void Reset(int64_t n) {
    explored_ids_.clear();
    if (static_cast<size_t>(n) > stamps_.size()) {
      stamps_.resize(static_cast<size_t>(n), 0);
      explored_at_.resize(static_cast<size_t>(n));
    }
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Explored(GraphId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < stamps_.size() && stamps_[i] == epoch_;
  }

  /// Exploration timestamp, or -1 if unexplored (the old map semantics).
  int64_t ExploredAt(GraphId id) const {
    return Explored(id) ? explored_at_[static_cast<size_t>(id)] : -1;
  }

  void MarkExplored(GraphId id, int64_t clock) {
    const size_t i = static_cast<size_t>(id);
    if (stamps_[i] != epoch_) explored_ids_.push_back(id);
    stamps_[i] = epoch_;
    explored_at_[i] = clock;
  }

  /// Explored ids of this query, in exploration order.
  const std::vector<GraphId>& explored_ids() const { return explored_ids_; }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<int64_t> explored_at_;
  std::vector<GraphId> explored_ids_;
  uint32_t epoch_ = 0;
};

/// Candidate-pool entry (W of Algorithms 1-2). Lives here rather than in
/// candidate_pool.h so the scratch can own reusable entry storage.
struct PoolEntry {
  GraphId id;
  double distance;
};

/// \brief Answer list of a routing run: ids with distances, ascending.
/// Defined here (rather than beam_search.h) so SearchScratch can own a
/// reusable one; beam_search.h re-exports it via its include.
struct RoutingResult {
  std::vector<std::pair<GraphId, double>> results;
  int64_t routing_steps = 0;
  /// Explored nodes in order (populated only when tracing is requested;
  /// see the *WithTrace entry points / NpRouteOptions::record_trace).
  std::vector<GraphId> trace;
};

/// \brief Reusable per-thread buffers of one query's search: visited/state
/// arrays keyed by dense GraphId, candidate-pool storage, and gather
/// buffers. Threaded through DistanceOracle, beam_search, np_route,
/// candidate_pool, learned_init and LanIndex::Search so the steady-state
/// query path performs no heap allocation (see docs/kernels.md, "Scratch
/// lifetime").
struct SearchScratch {
  /// Routing state shared by the candidate pool and the routers.
  RouteStateArray route_states;
  /// DistanceOracle's per-query d(Q, .) cache.
  StampedDoubleMap distance_cache;
  /// BeamSearchRouteFn's distance-callback memo (distinct from the oracle
  /// cache: the Fn variant routes over arbitrary callbacks).
  StampedDoubleMap route_memo;
  /// CandidatePool entry storage and TopKInto sort buffer.
  std::vector<PoolEntry> pool_entries;
  std::vector<PoolEntry> pool_sort;
  /// np_route's sorted-explored-nodes iteration buffer.
  std::vector<GraphId> id_buffer;
  /// learned_init gather buffers.
  std::vector<GraphId> init_candidates;
  std::vector<size_t> order_buffer;
  /// LanIndex::SearchInto's routing-result buffer.
  RoutingResult routing;
  /// Lease flag (single-threaded per instance; see ScratchLease).
  bool in_use = false;
};

/// \brief Leases a SearchScratch for the duration of one query. Resolution
/// order: an explicitly provided scratch (caller keeps ownership and the
/// lease is a pass-through), else the calling thread's thread-local
/// scratch, else — when the thread-local one is already leased by an outer
/// frame (re-entrancy) — a private heap-allocated fallback. `get()` is
/// therefore never null, and the hot path (thread-local hit) allocates
/// nothing after the first query on a thread.
class ScratchLease {
 public:
  explicit ScratchLease(SearchScratch* provided = nullptr);
  ~ScratchLease();

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SearchScratch* get() const { return scratch_; }

 private:
  SearchScratch* scratch_ = nullptr;
  std::unique_ptr<SearchScratch> owned_;
  bool leased_thread_local_ = false;
};

}  // namespace lan

#endif  // LAN_PG_SEARCH_SCRATCH_H_
