#ifndef LAN_PG_DISTANCE_H_
#define LAN_PG_DISTANCE_H_

#include "common/profile.h"
#include "common/stats.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "graph/graph_database.h"
#include "pg/result_cache.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief Per-query distance evaluator: caches d(Q, G_id) for the query's
/// lifetime, counts every computed distance as one NDC (the paper's
/// metric), and charges the GED time to the query's Stage::kGed span.
///
/// One DistanceOracle is created per query; all routing code computes
/// distances exclusively through it, so NDC is counted in exactly one
/// place. With a cross-query ResultCache and a nonzero query hash, a first
/// evaluation probes the cache before running GED: a hit skips the whole
/// GED pipeline and is charged to stats->cache_hits (with a kCacheHit
/// trace event) instead of NDC, keeping the "trace holds exactly ndc
/// kDistance events" invariant. Model scores (M_rk, M_nh, M_c) are
/// memoized through the same cache.
class DistanceOracle {
 public:
  /// `trace` (optional) receives one kDistance event per computed distance
  /// and one kCacheHit per cross-query hit. `scratch` (optional) donates
  /// the epoch-stamped dense distance cache, making the oracle
  /// allocation-free; without it the oracle owns one, sized to the
  /// database on construction. `result_cache` (optional) is the index's
  /// cross-query store, consulted only when `ctx.query_hash != 0`.
  DistanceOracle(const GraphDatabase* db, const Graph* query,
                 const GedComputer* ged, SearchStats* stats,
                 TraceSink* trace = nullptr, SearchScratch* scratch = nullptr,
                 ResultCache* result_cache = nullptr, QueryContext ctx = {})
      : db_(db), query_(query), ged_(ged), stats_(stats), trace_(trace),
        result_cache_(ctx.query_hash != 0 ? result_cache : nullptr),
        ctx_(ctx), cache_(CacheFor(scratch)) {
    cache_->Reset(db_->size());
  }

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  /// d(Q, db[id]) under the query protocol; cached for the query's
  /// lifetime (one array probe).
  double Distance(GraphId id) {
    if (const double* found = cache_->Find(id)) return *found;
    const double d = ComputeDistance(id);
    cache_->Insert(id, d);
    return d;
  }

  /// True if d(Q, db[id]) has already been evaluated for this query.
  bool IsCached(GraphId id) const { return FindCached(id) != nullptr; }

  /// The per-query cached distance, or nullptr if not evaluated yet — one
  /// probe where IsCached + Distance would take two. Note this reflects
  /// only this query's evaluations, never the cross-query cache, so
  /// control flow keyed on it is identical with and without caching.
  const double* FindCached(GraphId id) const { return cache_->Find(id); }

  /// Looks up a memoized model score; on a hit calls `read` on the cached
  /// blob (see ResultCache::ReadScore), charges stats->cache_hits and
  /// emits kCacheHit.
  bool ReadScore(ResultKind kind, GraphId id,
                 const std::function<void(const CachedScore&)>& read) {
    StageSpan span(profile_, Stage::kCacheLookup);
    if (result_cache_ == nullptr ||
        !result_cache_->ReadScore(ctx_.query_hash, id, kind, ctx_.epoch,
                                  read)) {
      return false;
    }
    ChargeCacheHit(kind, id, 0.0);
    return true;
  }

  /// Offers a model score for cross-query memoization.
  void StoreScore(ResultKind kind, GraphId id, const CachedScore& value) {
    StageSpan span(profile_, Stage::kCacheLookup);
    if (result_cache_ == nullptr) return;
    result_cache_->PutScore(ctx_.query_hash, id, kind, ctx_.epoch, value);
  }

  const Graph& query() const { return *query_; }
  const GraphDatabase& db() const { return *db_; }
  /// False when StoreScore is sure to drop its value, so callers can skip
  /// assembling the blob.
  bool caches_scores() const { return result_cache_ != nullptr; }
  SearchStats* stats() { return stats_; }
  /// The query's trace sink (null when tracing is disabled). The oracle is
  /// the per-query context every routing/init component already receives,
  /// so it carries the sink to all of them.
  TraceSink* trace() const { return trace_; }
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// The query's stage profile (null when profiling is disabled). Carried
  /// by the oracle for the same reason as the trace sink: every routing
  /// and init component already receives the oracle.
  StageProfile* profile() const { return profile_; }
  void set_profile(StageProfile* profile) { profile_ = profile; }

 private:
  StampedDoubleMap* CacheFor(SearchScratch* scratch) {
    return scratch != nullptr ? &scratch->distance_cache : &owned_cache_;
  }

  /// First-evaluation path: serves d(Q, db[id]) from the cross-query
  /// cache (charged as a cache hit) or computes it (charged as one NDC)
  /// and offers it to the cache.
  double ComputeDistance(GraphId id) {
    double value = 0.0;
    bool hit = false;
    {
      // Cross-query cache probes and the GED computation itself are both
      // charged to the ged stage.
      StageSpan span(profile_, Stage::kGed);
      hit = result_cache_ != nullptr &&
            result_cache_->FindGed(ctx_.query_hash, id, ResultKind::kExactGed,
                                   ctx_.epoch, &value);
      if (!hit) {
        value = ged_->Distance(*query_, db_->Get(id));
        if (result_cache_ != nullptr) {
          result_cache_->PutGed(ctx_.query_hash, id, ResultKind::kExactGed,
                                ctx_.epoch, value);
        }
      }
    }
    if (hit) {
      ChargeCacheHit(ResultKind::kExactGed, id, value);
      return value;
    }
    if (stats_ != nullptr) ++stats_->ndc;
    if (trace_ != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kDistance;
      event.id = id;
      event.value = value;
      trace_->Record(event);
    }
    return value;
  }

  void ChargeCacheHit(ResultKind kind, GraphId id, double value) {
    if (stats_ != nullptr) ++stats_->cache_hits;
    if (trace_ != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kCacheHit;
      event.id = id;
      event.value = value;
      event.detail = ResultKindName(kind);
      trace_->Record(event);
    }
  }

  const GraphDatabase* db_;
  const Graph* query_;
  const GedComputer* ged_;
  SearchStats* stats_;
  TraceSink* trace_;
  /// Null unless a cache was given and the query is cacheable.
  ResultCache* result_cache_;
  QueryContext ctx_;
  StageProfile* profile_ = nullptr;
  StampedDoubleMap owned_cache_;  // used when no scratch is donated
  StampedDoubleMap* cache_;
};

}  // namespace lan

#endif  // LAN_PG_DISTANCE_H_
