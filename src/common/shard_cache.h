#ifndef LAN_COMMON_SHARD_CACHE_H_
#define LAN_COMMON_SHARD_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lan {

/// Aggregate counters for one cache (summed across shards).
struct ShardCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;      // capacity-driven removals
  int64_t invalidations = 0;  // validity/Clear removals
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

/// 128-bit cache key (the result cache packs the query hash and the
/// search options into the two halves).
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

/// \brief A sharded, byte-bounded LRU cache with per-entry epoch stamps.
///
/// Each shard is an independent mutex + hash map + LRU list, so concurrent
/// queries on different shards never contend. Entries are charged
/// `value_bytes + kEntryOverheadBytes` against `capacity_bytes /
/// num_shards`; the least recently used entries of the owning shard are
/// evicted to make room.
///
/// Epoch semantics are caller-defined: Put stores an epoch stamp, FindIf
/// takes a predicate over that stamp, and entries failing the predicate
/// are dropped (counted as invalidations) instead of returned.
///
/// All methods are thread-safe.
template <typename V>
class ShardedLruCache {
 public:
  /// Approximate bookkeeping cost per resident entry (key, LRU node,
  /// hash bucket) charged on top of the caller-reported value bytes.
  static constexpr size_t kEntryOverheadBytes = 64;

  ShardedLruCache(size_t capacity_bytes, int num_shards) {
    if (num_shards < 1) num_shards = 1;
    shards_.resize(static_cast<size_t>(num_shards));
    for (auto& shard : shards_) shard = std::make_unique<Shard>();
    shard_capacity_bytes_ = capacity_bytes / static_cast<size_t>(num_shards);
    if (shard_capacity_bytes_ < kEntryOverheadBytes) {
      shard_capacity_bytes_ = kEntryOverheadBytes;
    }
  }

  /// Looks up `key`; on a hit whose epoch satisfies `valid(epoch)` copies
  /// the value into `*out` under the shard lock, refreshes recency, and
  /// returns true. A resident entry failing `valid` is erased
  /// (invalidation) and reported as a miss.
  template <typename ValidFn>
  bool FindIf(const CacheKey128& key, V* out, ValidFn&& valid) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.stats.misses;
      return false;
    }
    if (!valid(it->second.epoch)) {
      shard.bytes -= it->second.bytes;
      shard.lru.erase(it->second.pos);
      shard.map.erase(it);
      ++shard.stats.invalidations;
      ++shard.stats.misses;
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
    *out = it->second.value;
    ++shard.stats.hits;
    return true;
  }

  /// Inserts (or refreshes) `key` with the given epoch stamp, charging
  /// `value_bytes + kEntryOverheadBytes`. Refused when the entry alone
  /// exceeds the shard capacity.
  void Put(const CacheKey128& key, V value, size_t value_bytes,
           uint64_t epoch) {
    const size_t bytes = value_bytes + kEntryOverheadBytes;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (bytes > shard_capacity_bytes_) {
      ++shard.stats.rejected;
      return;
    }
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh in place (value may have been recomputed at a newer epoch).
      shard.bytes += bytes - it->second.bytes;
      it->second.value = std::move(value);
      it->second.bytes = bytes;
      it->second.epoch = epoch;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
      EvictOver(shard);
      return;
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.value = std::move(value);
    entry.epoch = epoch;
    entry.bytes = bytes;
    entry.pos = shard.lru.begin();
    shard.map.emplace(key, std::move(entry));
    shard.bytes += bytes;
    ++shard.stats.inserts;
    EvictOver(shard);
  }

  /// Drops every resident entry (counted as invalidations). Counters are
  /// preserved.
  void Clear() {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.stats.invalidations += static_cast<int64_t>(shard.map.size());
      shard.map.clear();
      shard.lru.clear();
      shard.bytes = 0;
    }
  }

  ShardCacheStats Stats() const {
    ShardCacheStats total;
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      total.Merge(shard.stats);
      total.entries += static_cast<int64_t>(shard.map.size());
      total.bytes += static_cast<int64_t>(shard.bytes);
    }
    return total;
  }

  size_t capacity_bytes() const {
    return shard_capacity_bytes_ * shards_.size();
  }

 private:
  struct KeyHasher {
    size_t operator()(const CacheKey128& key) const {
      return static_cast<size_t>(
          MixCacheHash(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull)));
    }
  };

  struct Entry {
    V value{};
    uint64_t epoch = 0;
    size_t bytes = 0;
    std::list<CacheKey128>::iterator pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<CacheKey128, Entry, KeyHasher> map;
    std::list<CacheKey128> lru;  // front = most recently used
    size_t bytes = 0;
    ShardCacheStats stats;  // entries/bytes fields unused here
  };

  Shard& ShardFor(const CacheKey128& key) const {
    const uint64_t h = KeyHasher()(key);
    return *shards_[static_cast<size_t>(h % shards_.size())];
  }

  // Caller holds shard.mu.
  void EvictOver(Shard& shard) {
    while (shard.bytes > shard_capacity_bytes_ && shard.map.size() > 1) {
      auto victim = shard.map.find(shard.lru.back());
      shard.bytes -= victim->second.bytes;
      shard.lru.pop_back();
      shard.map.erase(victim);
      ++shard.stats.evictions;
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_bytes_ = 0;
};

}  // namespace lan

#endif  // LAN_COMMON_SHARD_CACHE_H_
