#include "pg/result_cache.h"

#include <algorithm>

namespace lan {

namespace {

// Per-kind key perturbation so (query, graph) pairs of different kinds
// never collide even before mixing.
constexpr uint64_t kKindSalt = 0x9e3779b97f4a7c15ull;

// GED doubles dominate traffic and are tiny; model-score blobs are rarer
// but bigger. A static 3/4 : 1/4 split keeps either kind from starving
// the other.
constexpr size_t GedShare(size_t capacity) { return capacity - capacity / 4; }
constexpr size_t ScoreShare(size_t capacity) { return capacity / 4; }

CacheKey128 MakeKey(uint64_t query_hash, GraphId id, ResultKind kind) {
  CacheKey128 key;
  key.hi = MixCacheHash(query_hash ^
                        (static_cast<uint64_t>(kind) + 1) * kKindSalt);
  // The graph id rides in the clear so InvalidateGraph can sweep one id
  // without knowing which queries cached against it.
  key.lo = static_cast<uint64_t>(static_cast<int64_t>(id));
  return key;
}

}  // namespace

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kExactGed:
      return "exact_ged";
    case ResultKind::kRankBatches:
      return "rank_batches";
    case ResultKind::kClusterCounts:
      return "cluster_counts";
    case ResultKind::kNeighborhood:
      return "neighborhood";
  }
  return "unknown";
}

Status ResultCacheOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (capacity_bytes == 0) {
    return Status::InvalidArgument("cache.capacity_bytes must be > 0");
  }
  return Status::OK();
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options),
      ged_cache_(GedShare(options.capacity_bytes), kNumShards),
      score_cache_(ScoreShare(options.capacity_bytes), kNumShards) {}

uint64_t ResultCache::WatermarkOf(GraphId id) const {
  if (watermark_count_.load(std::memory_order_acquire) == 0) return 0;
  std::shared_lock<std::shared_mutex> lock(watermark_mu_);
  const auto it = watermarks_.find(id);
  return it != watermarks_.end() ? it->second : 0;
}

bool ResultCache::FindGed(uint64_t query_hash, GraphId id, ResultKind kind,
                          uint64_t query_epoch, double* out) {
  const uint64_t watermark = WatermarkOf(id);
  return ged_cache_.FindIf(
      MakeKey(query_hash, id, kind), out,
      [watermark, query_epoch](uint64_t entry_epoch) {
        return watermark <= entry_epoch && watermark <= query_epoch;
      });
}

void ResultCache::PutGed(uint64_t query_hash, GraphId id, ResultKind kind,
                         uint64_t epoch, double value) {
  if (epoch < WatermarkOf(id)) return;  // computed against a dead topology
  ged_cache_.Put(MakeKey(query_hash, id, kind), value, sizeof(double), epoch);
}

bool ResultCache::ReadScore(
    uint64_t query_hash, GraphId id, ResultKind kind, uint64_t query_epoch,
    const std::function<void(const CachedScore&)>& read) {
  const uint64_t watermark = WatermarkOf(id);
  return score_cache_.ReadIf(
      MakeKey(query_hash, id, kind),
      [watermark, query_epoch](uint64_t entry_epoch) {
        return watermark <= entry_epoch && watermark <= query_epoch;
      },
      read);
}

void ResultCache::PutScore(uint64_t query_hash, GraphId id, ResultKind kind,
                           uint64_t epoch, const CachedScore& value) {
  if (epoch < WatermarkOf(id)) return;
  score_cache_.Put(MakeKey(query_hash, id, kind), value, value.ByteSize(),
                   epoch);
}

void ResultCache::InvalidateGraph(GraphId id, uint64_t epoch) {
  InvalidateGraphs({id}, epoch);
}

void ResultCache::InvalidateGraphs(const std::vector<GraphId>& ids,
                                   uint64_t epoch) {
  if (ids.empty()) return;
  {
    std::unique_lock<std::shared_mutex> lock(watermark_mu_);
    for (GraphId id : ids) {
      uint64_t& mark = watermarks_[id];
      mark = std::max(mark, epoch);
    }
    watermark_count_.store(watermarks_.size(), std::memory_order_release);
  }
  // Physical sweep: entries below the new watermark can never be served
  // again (FindIf would reject them), so reclaim their bytes now.
  auto stale = [&ids, epoch](const CacheKey128& key, uint64_t entry_epoch) {
    if (entry_epoch >= epoch) return false;
    for (GraphId id : ids) {
      if (key.lo == static_cast<uint64_t>(static_cast<int64_t>(id))) {
        return true;
      }
    }
    return false;
  };
  ged_cache_.EraseIf(stale);
  score_cache_.EraseIf(stale);
}

void ResultCache::Clear() {
  ged_cache_.Clear();
  score_cache_.Clear();
}

ShardCacheStats ResultCache::Stats() const {
  ShardCacheStats total = ged_cache_.Stats();
  total.Merge(score_cache_.Stats());
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

size_t ResultCache::capacity_bytes() const {
  return ged_cache_.capacity_bytes() + score_cache_.capacity_bytes();
}

void ResultCache::AppendMetrics(MetricsRegistry* registry,
                                const ShardCacheStats* baseline) const {
  ShardCacheStats stats = Stats();
  if (baseline != nullptr) stats = SubtractCacheCounters(stats, *baseline);
  AppendCacheMetrics(stats, capacity_bytes(), registry);
}

}  // namespace lan
