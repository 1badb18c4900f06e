#include "pg/result_cache.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>

namespace lan {
namespace {

struct KeyHasher {
  size_t operator()(const CacheKey128& key) const {
    return static_cast<size_t>(
        MixCacheHash(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull)));
  }
};

}  // namespace

/// One lock shard: its entries, their recency order and its counters.
struct ResultCache::Shard {
  struct Entry {
    Answer answer;
    uint64_t epoch = 0;
    size_t bytes = 0;
    std::list<CacheKey128>::iterator pos;
  };

  /// Erases `it`, giving its bytes back.
  void Erase(std::unordered_map<CacheKey128, Entry, KeyHasher>::iterator it) {
    bytes -= it->second.bytes;
    lru.erase(it->second.pos);
    map.erase(it);
  }

  /// Evicts least recently used entries until the shard fits `capacity`
  /// (always keeping the newest one). Caller holds `mu`.
  void EvictOver(size_t capacity) {
    while (bytes > capacity && map.size() > 1) {
      Erase(map.find(lru.back()));
      ++stats.evictions;
    }
  }

  mutable std::mutex mu;
  std::unordered_map<CacheKey128, Entry, KeyHasher> map;
  std::list<CacheKey128> lru;  // front = most recently used
  size_t bytes = 0;
  ShardCacheStats stats;  // entries/bytes fields unused here
};

uint64_t MixCacheHash(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Status ResultCacheOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (capacity_bytes == 0) {
    return Status::InvalidArgument("cache.capacity_bytes must be > 0");
  }
  return Status::OK();
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : shards_(std::make_unique<Shard[]>(kNumShards)),
      shard_capacity_bytes_(std::max(options.capacity_bytes / kNumShards,
                                     kEntryOverheadBytes)) {}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::ShardFor(const CacheKey128& key) const {
  return shards_[KeyHasher()(key) % kNumShards];
}

bool ResultCache::Find(const CacheKey128& key, uint64_t epoch, Answer* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.stats.misses;
    return false;
  }
  if (it->second.epoch != epoch) {
    shard.Erase(it);
    ++shard.stats.invalidations;
    ++shard.stats.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
  *out = it->second.answer;
  ++shard.stats.hits;
  return true;
}

void ResultCache::Put(const CacheKey128& key, uint64_t epoch,
                      const Answer& answer) {
  const size_t bytes =
      answer.size() * sizeof(Answer::value_type) + kEntryOverheadBytes;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (bytes > shard_capacity_bytes_) {
    ++shard.stats.rejected;
    return;
  }
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Refresh in place (the answer may have been recomputed at a newer
    // epoch).
    shard.bytes += bytes - it->second.bytes;
    it->second.answer = answer;
    it->second.bytes = bytes;
    it->second.epoch = epoch;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
  } else {
    shard.lru.push_front(key);
    shard.map.emplace(key, Shard::Entry{answer, epoch, bytes,
                                        shard.lru.begin()});
    shard.bytes += bytes;
    ++shard.stats.inserts;
  }
  shard.EvictOver(shard_capacity_bytes_);
}

void ResultCache::Clear() {
  for (size_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.invalidations += static_cast<int64_t>(shard.map.size());
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

ShardCacheStats ResultCache::Stats() const {
  ShardCacheStats total;
  for (size_t i = 0; i < kNumShards; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.Merge(shard.stats);
    total.entries += static_cast<int64_t>(shard.map.size());
    total.bytes += static_cast<int64_t>(shard.bytes);
  }
  return total;
}

ShardCacheStats SubtractCacheCounters(ShardCacheStats stats,
                                      const ShardCacheStats& baseline) {
  stats.hits -= baseline.hits;
  stats.misses -= baseline.misses;
  stats.inserts -= baseline.inserts;
  stats.evictions -= baseline.evictions;
  stats.invalidations -= baseline.invalidations;
  stats.rejected -= baseline.rejected;
  // entries/bytes stay absolute: they are point-in-time gauges.
  return stats;
}

void AppendCacheMetrics(const ShardCacheStats& stats, size_t capacity_bytes,
                        MetricsRegistry* registry) {
  registry->Increment(registry->Counter("cache.hits"), stats.hits);
  registry->Increment(registry->Counter("cache.misses"), stats.misses);
  registry->Increment(registry->Counter("cache.inserts"), stats.inserts);
  registry->Increment(registry->Counter("cache.evictions"), stats.evictions);
  registry->Increment(registry->Counter("cache.invalidations"),
                      stats.invalidations);
  registry->Increment(registry->Counter("cache.rejected"), stats.rejected);
  const int64_t lookups = stats.hits + stats.misses;
  registry->SetGauge(registry->Gauge("cache.hit_rate"),
                     lookups > 0 ? static_cast<double>(stats.hits) /
                                       static_cast<double>(lookups)
                                 : 0.0);
  registry->SetGauge(registry->Gauge("cache.entries"),
                     static_cast<double>(stats.entries));
  registry->SetGauge(registry->Gauge("cache.bytes"),
                     static_cast<double>(stats.bytes));
  registry->SetGauge(registry->Gauge("cache.capacity_bytes"),
                     static_cast<double>(capacity_bytes));
}

void ResultCache::AppendMetrics(MetricsRegistry* registry,
                                const ShardCacheStats* baseline) const {
  ShardCacheStats stats = Stats();
  if (baseline != nullptr) stats = SubtractCacheCounters(stats, *baseline);
  AppendCacheMetrics(stats, capacity_bytes(), registry);
}

}  // namespace lan
