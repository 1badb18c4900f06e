#ifndef LAN_PG_SEARCH_SCRATCH_H_
#define LAN_PG_SEARCH_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

/// \brief Epoch-stamped dense map GraphId -> T. Backing arrays are sized
/// once to the id universe and never shrink; `Reset` is O(1) (bump the
/// epoch), so a per-query map costs no allocation and no clearing after
/// the first query on a thread.
///
/// Must be `Reset` before first use after construction.
template <typename T>
class StampedDenseMap {
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

  const T* Find(GraphId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < stamps_.size() && stamps_[i] == epoch_ ? &values_[i] : nullptr;
  }

  /// Precondition: id < n of the last Reset and not already present.
  void Insert(GraphId id, T value) {
    const size_t i = static_cast<size_t>(id);
    stamps_[i] = epoch_;
    values_[i] = value;
  }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<T> values_;
  uint32_t epoch_ = 0;
};

using StampedDoubleMap = StampedDenseMap<double>;

/// \brief Per-query routing state of the PG nodes, as epoch-stamped dense
/// arrays: the `G.explored` flag of Algorithms 1-4 with its timestamp, and
/// whether the node is currently in the candidate pool W. O(1) queries
/// with no hashing, O(1) reset, zero steady-state allocations. Must be
/// `Reset` before first use.
class RouteStateArray {
 public:
  /// Starts a new query covering ids [0, n): nothing explored, W empty.
  void Reset(int64_t n) {
    explored_ids_.clear();
    if (static_cast<size_t>(n) > nodes_.size()) {
      nodes_.resize(static_cast<size_t>(n));
    }
    if (++epoch_ == 0) {
      // Stamp wrap-around (once per 2^32 generations): invalidate all.
      for (NodeState& node : nodes_) node.explored_stamp = 0;
      epoch_ = 1;
    }
    ClearPool();
  }

  bool Explored(GraphId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < nodes_.size() && nodes_[i].explored_stamp == epoch_;
  }

  /// Exploration timestamp, or -1 if unexplored (the old map semantics).
  int64_t ExploredAt(GraphId id) const {
    return Explored(id) ? nodes_[static_cast<size_t>(id)].explored_at : -1;
  }

  void MarkExplored(GraphId id, int64_t clock) {
    NodeState& node = nodes_[static_cast<size_t>(id)];
    if (node.explored_stamp != epoch_) explored_ids_.push_back(id);
    node.explored_stamp = epoch_;
    node.explored_at = clock;
  }

  /// Explored ids of this query, in exploration order.
  const std::vector<GraphId>& explored_ids() const { return explored_ids_; }

  /// The "in W" mark, owned by CandidatePool: O(1) membership instead of
  /// a scan of the pool. `ClearPool` empties W in O(1); `Reset` does too.
  bool InPool(GraphId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < nodes_.size() && nodes_[i].pool_stamp == pool_epoch_;
  }
  /// Precondition: id < n of the last Reset.
  void SetInPool(GraphId id, bool in_pool) {
    nodes_[static_cast<size_t>(id)].pool_stamp = in_pool ? pool_epoch_ : 0;
  }
  void ClearPool() {
    if (++pool_epoch_ == 0) {
      for (NodeState& node : nodes_) node.pool_stamp = 0;
      pool_epoch_ = 1;
    }
  }

 private:
  /// One record per id, so a pool comparison that reads the explored
  /// stamp, its timestamp and the "in W" mark touches one cache line.
  struct NodeState {
    uint32_t explored_stamp = 0;
    uint32_t pool_stamp = 0;
    int64_t explored_at = 0;
  };

  std::vector<NodeState> nodes_;
  std::vector<GraphId> explored_ids_;
  uint32_t epoch_ = 0;
  uint32_t pool_epoch_ = 0;
};

/// Candidate-pool entry (W of Algorithms 1-2). Lives here rather than in
/// candidate_pool.h so the scratch can own reusable entry storage.
struct PoolEntry {
  GraphId id;
  double distance;
};

/// \brief Ranked neighbor batches B_0..B_n in flat form: `ids` holds the
/// members batch after batch, and `ends[j]` is the end offset in `ids` of
/// batch j. NeighborRanker::RankNeighbors appends one
/// node's batches; np_route keeps every explored node's batches in one
/// such buffer, so its capacity is the reuse.
struct RankedBatches {
  std::vector<GraphId> ids;
  std::vector<uint32_t> ends;

  size_t num_batches() const { return ends.size(); }

  /// Members of batch j.
  std::span<const GraphId> Batch(size_t j) const {
    const uint32_t begin = j == 0 ? 0 : ends[j - 1];
    return {ids.data() + begin, ends[j] - begin};
  }

  void AppendBatch(std::span<const GraphId> members) {
    ids.insert(ids.end(), members.begin(), members.end());
    ends.push_back(static_cast<uint32_t>(ids.size()));
  }

  void Clear() {
    ids.clear();
    ends.clear();
  }

  bool operator==(const RankedBatches&) const = default;
};

/// \brief np_route's bookkeeping of one explored PG node: where its ranked
/// batches sit in the batch arena, how many have been opened (distances
/// computed), and the farthest member distance across the opened batches
/// (a running max, so revisits need not re-scan every opened member).
struct BatchState {
  /// Global index of the node's batch 0 in SearchScratch::batches.
  uint32_t first_batch = 0;
  uint32_t num_batches = 0;
  uint32_t opened = 0;
  double farthest_opened = -1.0;
};

/// \brief Answer list of a routing run: ids with distances, ascending.
/// Defined here (rather than beam_search.h) so SearchScratch can own a
/// reusable one; beam_search.h re-exports it via its include.
struct RoutingResult {
  std::vector<std::pair<GraphId, double>> results;
  int64_t routing_steps = 0;
};

/// \brief Reusable per-thread buffers of one query's search: visited/state
/// arrays keyed by dense GraphId, candidate-pool storage, np_route's batch
/// arena, and gather buffers. Threaded through DistanceOracle, beam_search, np_route,
/// candidate_pool, learned_init and LanIndex::Search so the steady-state
/// query path performs no heap allocation (see docs/kernels.md, "Scratch
/// lifetime").
struct SearchScratch {
  /// Routing state shared by the candidate pool and the routers.
  RouteStateArray route_states;
  /// DistanceOracle's per-query d(Q, .) cache.
  StampedDoubleMap distance_cache;
  /// DistanceOracle's prepared form of the query.
  PreparedGraph query_prepared;
  /// BeamSearchRouteFn's distance-callback memo (distinct from the oracle
  /// cache: the Fn variant routes over arbitrary callbacks).
  StampedDoubleMap route_memo;
  /// CandidatePool entry storage and TopKInto sort buffer.
  std::vector<PoolEntry> pool_entries;
  std::vector<PoolEntry> pool_sort;
  /// np_route's sorted-explored-nodes iteration buffer.
  std::vector<GraphId> id_buffer;
  /// np_route's batch arena: the ranked batches of every node this query
  /// explored, appended by NeighborRanker::RankNeighbors; the per-node
  /// BatchStates, by slot; and the GraphId -> slot index. States are
  /// referred to by slot, since both vectors grow within a query.
  RankedBatches batches;
  std::vector<BatchState> batch_states;
  StampedDenseMap<uint32_t> batch_slots;
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
