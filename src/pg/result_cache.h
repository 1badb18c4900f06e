#ifndef LAN_PG_RESULT_CACHE_H_
#define LAN_PG_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/shard_cache.h"
#include "common/status.h"
#include "graph/graph.h"

namespace lan {

/// \brief Kinds of memoizable per-(query, graph) results.
///
/// The kind is part of every cache key, so results produced by different
/// pipelines never collide. Value 1 (the retired build-protocol GED kind)
/// is unused.
enum class ResultKind : uint8_t {
  /// Query-protocol GED (exact attempt + approximate fallback).
  kExactGed = 0,
  /// M_rk output: the ranked candidate batches of one routing node.
  kRankBatches = 2,
  /// M_c output: per-cluster predicted |C ∩ N_Q| counts (graph id unused).
  kClusterCounts = 3,
  /// M_nh output: LAN_IS's kept set over the scanned clusters (graph id
  /// unused).
  kNeighborhood = 4,
};

const char* ResultKindName(ResultKind kind);

/// \brief Identity of the running query as seen by the cache.
///
/// `query_hash == 0` marks the query as uncacheable (anonymous callers,
/// caching disabled); the oracle then computes every result directly.
/// `epoch` is the index epoch the query pinned at entry; entries computed
/// at an older epoch than the last mutation of a graph are not served to
/// it.
struct QueryContext {
  uint64_t query_hash = 0;
  uint64_t epoch = 0;
};

/// \brief A memoized model score blob (shape depends on ResultKind).
///
/// kRankBatches: `ids` holds the batches' graph ids flattened in order and
/// `sizes` the per-batch lengths. kClusterCounts: `floats` holds the
/// per-cluster predicted counts. kNeighborhood: `ids` holds the kept
/// members in scan order.
struct CachedScore {
  std::vector<float> floats;
  std::vector<GraphId> ids;
  std::vector<int32_t> sizes;

  size_t ByteSize() const {
    return floats.size() * sizeof(float) + ids.size() * sizeof(GraphId) +
           sizes.size() * sizeof(int32_t);
  }
};

/// Returns `stats` with the counter-like fields (hits..rejected) reduced
/// by `baseline`; the point-in-time fields (entries, bytes) pass through.
ShardCacheStats SubtractCacheCounters(ShardCacheStats stats,
                                      const ShardCacheStats& baseline);

/// Emits one ShardCacheStats as the standard `cache.*` metrics — shared by
/// ResultCache::AppendMetrics and the stats server's moving-baseline
/// scrape.
void AppendCacheMetrics(const ShardCacheStats& stats, size_t capacity_bytes,
                        MetricsRegistry* registry);

/// \brief Cross-query result-cache knobs (part of LanConfig).
struct ResultCacheOptions {
  /// Master switch. Off by default: caching is an opt-in serving
  /// optimization, and disabled indexes carry zero overhead.
  bool enabled = false;
  /// Total byte budget across both value stores (GED + model scores).
  size_t capacity_bytes = 64ull << 20;

  Status Validate() const;
};

/// \brief The index-wide cross-query memoization store.
///
/// Keyed by (canonical query content hash, graph id, result kind); holds
/// query-protocol GED values and M_rk/M_nh/M_c model outputs. Each index
/// owns its cache and runs one protocol per kind, so the kind alone
/// separates keyspaces. Two byte-bounded LRU stores split the budget: GED
/// doubles (3/4, the high-traffic kind) and model-score blobs (1/4).
///
/// Epoch invalidation contract: every entry is stamped with the index
/// epoch it was computed at, and `watermarks_[g]` records the epoch of the
/// last mutation that touched graph g's neighborhood. An entry for g is
/// served to a query pinned at epoch E iff
///     watermark(g) <= min(entry_epoch, E)
/// i.e. nothing touched g since the entry was computed or the query
/// pinned. Insert/Remove call InvalidateGraphs with only the touched ids
/// (new node + rewired HNSW neighbors; Insert adds kInvalidGraphId, the
/// id of query-level entries, as it changes a cluster's members) — a
/// watermark bump plus a physical
/// sweep of stale entries — so mutation never needs a global flush.
/// Put/Invalidate races self-heal: a Put that slips past a concurrent
/// watermark bump leaves an entry whose epoch is below the watermark,
/// which every later Find rejects (and erases).
///
/// All methods are thread-safe.
class ResultCache {
 public:
  /// Lock shards per store: enough that SearchBatch's threads rarely
  /// contend, few enough that each shard's byte budget stays large.
  static constexpr int kNumShards = 16;

  explicit ResultCache(const ResultCacheOptions& options);

  bool FindGed(uint64_t query_hash, GraphId id, ResultKind kind,
               uint64_t query_epoch, double* out);
  void PutGed(uint64_t query_hash, GraphId id, ResultKind kind, uint64_t epoch,
              double value);

  /// Looks up a model score; on a hit calls `read` on the resident blob
  /// under the shard lock, so the caller copies it straight into its own
  /// storage, and returns true. `read` must not call into the cache.
  bool ReadScore(uint64_t query_hash, GraphId id, ResultKind kind,
                 uint64_t query_epoch,
                 const std::function<void(const CachedScore&)>& read);
  void PutScore(uint64_t query_hash, GraphId id, ResultKind kind,
                uint64_t epoch, const CachedScore& value);

  /// Publishes `epoch` as graph `id`'s watermark and sweeps its stale
  /// entries. Called by the writer between mutating the index and
  /// publishing the new snapshot, so no query at the new epoch can ever
  /// observe a pre-mutation entry.
  void InvalidateGraph(GraphId id, uint64_t epoch);
  void InvalidateGraphs(const std::vector<GraphId>& ids, uint64_t epoch);

  /// Drops everything (model retrain / reload: all score entries are
  /// stale and GED entries are cheap to refill).
  void Clear();

  ShardCacheStats Stats() const;

  /// Combined byte budget of both value stores.
  size_t capacity_bytes() const;

  /// Registers/updates the `cache.*` metrics on `registry`: counters
  /// cache.hits/misses/inserts/evictions/invalidations/rejected and gauges
  /// cache.hit_rate/entries/bytes/capacity_bytes. When `baseline` is
  /// non-null the counters (and the hit-rate gauge) report the delta since
  /// it was captured (SearchBatch scopes its per-call registry that way);
  /// the remaining gauges are always point-in-time.
  void AppendMetrics(MetricsRegistry* registry,
                     const ShardCacheStats* baseline = nullptr) const;

  const ResultCacheOptions& options() const { return options_; }

 private:
  /// Watermark of graph id (0 if never touched). Lock-free when no
  /// mutation has ever happened — the common read-only serving case.
  uint64_t WatermarkOf(GraphId id) const;

  ResultCacheOptions options_;
  ShardedLruCache<double> ged_cache_;
  ShardedLruCache<CachedScore> score_cache_;

  mutable std::shared_mutex watermark_mu_;
  std::unordered_map<GraphId, uint64_t> watermarks_;
  std::atomic<uint64_t> watermark_count_{0};
};

}  // namespace lan

#endif  // LAN_PG_RESULT_CACHE_H_
