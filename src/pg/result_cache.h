#ifndef LAN_PG_RESULT_CACHE_H_
#define LAN_PG_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "graph/graph.h"

namespace lan {

/// Aggregate counters for one cache (summed across its lock shards).
struct ShardCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;      // capacity-driven removals
  int64_t invalidations = 0;  // epoch-mismatch/Clear removals
  int64_t rejected = 0;       // Puts refused by size
  int64_t entries = 0;        // resident entries (point-in-time)
  int64_t bytes = 0;          // resident charged bytes (point-in-time)

  void Merge(const ShardCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
    invalidations += other.invalidations;
    rejected += other.rejected;
    entries += other.entries;
    bytes += other.bytes;
  }
};

/// 128-bit cache key (the index packs the query hash and the search
/// options into the two halves).
struct CacheKey128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const CacheKey128& other) const {
    return hi == other.hi && lo == other.lo;
  }
};

/// Strong 64-bit finalizer (splitmix64) used for key mixing and shard
/// selection.
uint64_t MixCacheHash(uint64_t x);

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
/// Storage is a byte-bounded LRU split into kNumShards lock shards, each
/// an independent mutex + hash map + LRU list picked by the key hash.
/// Every entry is charged its answer bytes plus kEntryOverheadBytes
/// against `capacity_bytes / kNumShards`; the owning shard evicts its
/// least recently used entries to make room, and refuses an entry larger
/// than the whole shard.
///
/// All methods are thread-safe.
class ResultCache {
 public:
  using Answer = std::vector<std::pair<GraphId, double>>;

  /// Lock shards: enough that SearchBatch's threads rarely contend, few
  /// enough that each shard's byte budget stays large.
  static constexpr int kNumShards = 16;
  /// Approximate bookkeeping cost per resident entry (key, LRU node,
  /// hash bucket) charged on top of the answer bytes.
  static constexpr size_t kEntryOverheadBytes = 64;

  explicit ResultCache(const ResultCacheOptions& options);
  ~ResultCache();

  /// Copies the answer stored under `key` at exactly `epoch` into `*out`
  /// (reusing its capacity) and returns true. An entry stamped with any
  /// other epoch is dropped and reported as a miss.
  bool Find(const CacheKey128& key, uint64_t epoch, Answer* out);
  /// Stores `answer` under `key`, stamped with `epoch`.
  void Put(const CacheKey128& key, uint64_t epoch, const Answer& answer);

  /// Drops every entry (counted as invalidations).
  void Clear();

  ShardCacheStats Stats() const;

  size_t capacity_bytes() const {
    return shard_capacity_bytes_ * kNumShards;
  }

  /// Registers/updates the `cache.*` metrics on `registry`: counters
  /// cache.hits/misses/inserts/evictions/invalidations/rejected and gauges
  /// cache.hit_rate/entries/bytes/capacity_bytes. When `baseline` is
  /// non-null the counters (and the hit-rate gauge) report the delta since
  /// it was captured (SearchBatch scopes its per-call registry that way);
  /// the remaining gauges are always point-in-time.
  void AppendMetrics(MetricsRegistry* registry,
                     const ShardCacheStats* baseline = nullptr) const;

 private:
  struct Shard;

  Shard& ShardFor(const CacheKey128& key) const;

  std::unique_ptr<Shard[]> shards_;
  size_t shard_capacity_bytes_;
};

}  // namespace lan

#endif  // LAN_PG_RESULT_CACHE_H_
