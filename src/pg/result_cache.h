#ifndef LAN_PG_RESULT_CACHE_H_
#define LAN_PG_RESULT_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/shard_cache.h"
#include "common/status.h"
#include "graph/graph.h"

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
  /// Byte budget of the stored answers.
  size_t capacity_bytes = 64ull << 20;

  Status Validate() const;
};

/// \brief The index-wide answer cache: one entry per answered query.
///
/// The key is built by the index from the query's canonical content hash
/// and every search option the answer depends on (k, resolved beam,
/// routing, init); the value is the answer list, stamped with the epoch
/// the computing query pinned. Find serves an entry only to a query pinned
/// at exactly that epoch, so a write racing a search can never leak an
/// answer across epochs; Clear (called on Insert, Remove and Train) only
/// frees memory.
///
/// All methods are thread-safe.
class ResultCache {
 public:
  using Answer = std::vector<std::pair<GraphId, double>>;

  /// Lock shards: enough that SearchBatch's threads rarely contend, few
  /// enough that each shard's byte budget stays large.
  static constexpr int kNumShards = 16;

  explicit ResultCache(const ResultCacheOptions& options);

  /// Copies the answer stored under `key` at exactly `epoch` into `*out`
  /// (reusing its capacity) and returns true. An entry stamped with any
  /// other epoch is dropped and reported as a miss.
  bool Find(const CacheKey128& key, uint64_t epoch, Answer* out);
  /// Stores `answer` under `key`, stamped with `epoch`.
  void Put(const CacheKey128& key, uint64_t epoch, const Answer& answer);

  /// Drops every entry (counted as invalidations).
  void Clear();

  ShardCacheStats Stats() const;

  size_t capacity_bytes() const { return answers_.capacity_bytes(); }

  /// Registers/updates the `cache.*` metrics on `registry`: counters
  /// cache.hits/misses/inserts/evictions/invalidations/rejected and gauges
  /// cache.hit_rate/entries/bytes/capacity_bytes. When `baseline` is
  /// non-null the counters (and the hit-rate gauge) report the delta since
  /// it was captured (SearchBatch scopes its per-call registry that way);
  /// the remaining gauges are always point-in-time.
  void AppendMetrics(MetricsRegistry* registry,
                     const ShardCacheStats* baseline = nullptr) const;

 private:
  ShardedLruCache<Answer> answers_;
};

}  // namespace lan

#endif  // LAN_PG_RESULT_CACHE_H_
