#ifndef LAN_LAN_RESULT_CACHE_H_
#define LAN_LAN_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/shard_cache.h"
#include "common/status.h"
#include "pg/distance.h"

namespace lan {

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
  /// Lock shards per store; more shards = less contention under
  /// SearchBatch, slightly more fixed overhead.
  int num_shards = 16;
  CacheAdmission admission = CacheAdmission::kAdmitAll;

  Status Validate() const;
};

/// \brief The index-wide cross-query memoization store.
///
/// Keyed by (canonical query content hash, graph id, result kind, GED
/// protocol salt); holds exact/approximate GED values and M_rk/M_nh/M_c
/// model outputs. Two byte-bounded LRU stores split the budget: GED doubles
/// (3/4, the high-traffic kind) and model-score blobs (1/4).
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
  /// `key_salt` separates keyspaces that must not share results (e.g. the
  /// GED protocol fingerprints of the owning index), so a future
  /// process-wide shared cache cannot serve one index's protocol to
  /// another.
  explicit ResultCache(const ResultCacheOptions& options,
                       uint64_t key_salt = 0);

  bool FindGed(uint64_t query_hash, GraphId id, ResultKind kind,
               uint64_t query_epoch, double* out);
  void PutGed(uint64_t query_hash, GraphId id, ResultKind kind, uint64_t epoch,
              double value);

  bool FindScore(uint64_t query_hash, GraphId id, ResultKind kind,
                 uint64_t query_epoch, CachedScore* out);
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
  CacheKey128 MakeKey(uint64_t query_hash, GraphId id, ResultKind kind) const;
  /// Watermark of graph id (0 if never touched). Lock-free when no
  /// mutation has ever happened — the common read-only serving case.
  uint64_t WatermarkOf(GraphId id) const;

  ResultCacheOptions options_;
  uint64_t key_salt_ = 0;
  ShardedLruCache<double> ged_cache_;
  ShardedLruCache<CachedScore> score_cache_;

  mutable std::shared_mutex watermark_mu_;
  std::unordered_map<GraphId, uint64_t> watermarks_;
  std::atomic<uint64_t> watermark_count_{0};
};

/// \brief DistanceProvider decorator that memoizes through a ResultCache.
///
/// Transparent by construction: a hit returns exactly the double/blob a
/// previous identical computation produced (GED and model inference are
/// deterministic), flagged `computed = false` so DistanceOracle charges it
/// as a cache hit instead of NDC. Queries with `query_hash == 0` bypass
/// the cache entirely.
class CachingDistanceProvider final : public DistanceProvider {
 public:
  CachingDistanceProvider(const DistanceProvider* base,
                          std::shared_ptr<ResultCache> cache)
      : base_(base), cache_(std::move(cache)) {}

  DistanceResult Exact(const QueryContext& ctx, const Graph& query,
                       GraphId id) const override;
  DistanceResult Approx(const QueryContext& ctx, const Graph& query,
                        GraphId id) const override;
  bool FindScore(const QueryContext& ctx, ResultKind kind, GraphId id,
                 CachedScore* out) const override;
  void StoreScore(const QueryContext& ctx, ResultKind kind, GraphId id,
                  const CachedScore& value) const override;
  bool CachesScores(const QueryContext& ctx) const override {
    return ctx.query_hash != 0;
  }

  const DistanceProvider* base() const { return base_; }
  ResultCache* cache() const { return cache_.get(); }

 private:
  DistanceResult CachedGed(const QueryContext& ctx, const Graph& query,
                           GraphId id, ResultKind kind) const;

  const DistanceProvider* base_;
  std::shared_ptr<ResultCache> cache_;
};

/// The one composition point for cache layering: wraps `base` if `cache`
/// is non-null, otherwise returns null (callers then use `base` directly).
std::unique_ptr<DistanceProvider> MakeCachingProvider(
    const DistanceProvider* base, std::shared_ptr<ResultCache> cache);

}  // namespace lan

#endif  // LAN_LAN_RESULT_CACHE_H_
