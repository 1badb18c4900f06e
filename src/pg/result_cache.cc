#include "pg/result_cache.h"

namespace lan {

Status ResultCacheOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (capacity_bytes == 0) {
    return Status::InvalidArgument("cache.capacity_bytes must be > 0");
  }
  return Status::OK();
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : answers_(options.capacity_bytes, kNumShards) {}

bool ResultCache::Find(const CacheKey128& key, uint64_t epoch, Answer* out) {
  return answers_.FindIf(key, out, [epoch](uint64_t entry_epoch) {
    return entry_epoch == epoch;
  });
}

void ResultCache::Put(const CacheKey128& key, uint64_t epoch,
                      const Answer& answer) {
  answers_.Put(key, answer, answer.size() * sizeof(Answer::value_type),
               epoch);
}

void ResultCache::Clear() { answers_.Clear(); }

ShardCacheStats ResultCache::Stats() const { return answers_.Stats(); }

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
