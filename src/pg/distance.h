#ifndef LAN_PG_DISTANCE_H_
#define LAN_PG_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "common/profile.h"
#include "common/stats.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "graph/graph_database.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief Kinds of memoizable per-(query, graph) results.
///
/// The kind is part of every cache key, so results produced by different
/// pipelines never collide.
enum class ResultKind : uint8_t {
  /// Query-protocol GED (exact attempt + approximate fallback).
  kExactGed = 0,
  /// Build-protocol GED (bipartite/beam approximation only).
  kApproxGed = 1,
  /// M_rk output: the ranked candidate batches of one routing node.
  kRankBatches = 2,
  /// M_c output: per-cluster predicted |C ∩ N_Q| counts (graph id unused).
  kClusterCounts = 3,
  /// M_nh output: LAN_IS's kept set over the scanned clusters (graph id
  /// unused).
  kNeighborhood = 4,
};

const char* ResultKindName(ResultKind kind);

/// \brief Identity of the running query as seen by caches.
///
/// `query_hash == 0` marks the query as uncacheable (anonymous callers,
/// caching disabled); providers then pass straight through to computation.
/// `epoch` is the index epoch the query pinned at entry; entries computed
/// at an older epoch than the last mutation of a graph are not served to
/// it.
struct QueryContext {
  uint64_t query_hash = 0;
  uint64_t epoch = 0;
};

/// \brief A distance value plus whether it was computed just now.
///
/// `computed == false` means the value was served from a cross-query cache
/// hit; the caller (DistanceOracle) uses the flag to charge NDC vs
/// cache-hit accounting without the provider knowing about SearchStats.
struct DistanceResult {
  double value = 0.0;
  bool computed = true;
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

/// \brief The unified source of pairwise results for search and build.
///
/// Implementations: GedDistanceProvider (direct computation),
/// CachingDistanceProvider (cross-query memoization decorator, see
/// lan/result_cache.h). Layering composes at construction time — callers
/// hold one `const DistanceProvider*` and never know whether caching is
/// stacked underneath.
///
/// Exact/Approx name the two GED protocols an index carries (query-time
/// and build-time options respectively). FindScore/StoreScore expose
/// model-score memoization (M_rk, M_nh, M_c); the base implementation has no
/// storage, so scores are recomputed unless a caching decorator is
/// present.
///
/// All methods are const and must be thread-safe: one provider instance
/// serves every concurrent query of an index.
class DistanceProvider {
 public:
  virtual ~DistanceProvider();

  /// Query-protocol distance d(query, db[id]).
  virtual DistanceResult Exact(const QueryContext& ctx, const Graph& query,
                               GraphId id) const = 0;

  /// Build-protocol distance d(query, db[id]).
  virtual DistanceResult Approx(const QueryContext& ctx, const Graph& query,
                                GraphId id) const = 0;

  /// Looks up a memoized model score. Default: always a miss.
  virtual bool FindScore(const QueryContext& ctx, ResultKind kind, GraphId id,
                         CachedScore* out) const;

  /// Offers a model score for memoization. Default: drops it.
  virtual void StoreScore(const QueryContext& ctx, ResultKind kind, GraphId id,
                          const CachedScore& value) const;

  /// Whether StoreScore keeps model scores for this query. Default: false.
  virtual bool CachesScores(const QueryContext& ctx) const;
};

/// \brief Leaf provider: computes every result directly from the GED
/// computers, no memoization.
class GedDistanceProvider final : public DistanceProvider {
 public:
  GedDistanceProvider() = default;

  /// `approx` may be null, in which case the exact computer serves both
  /// protocols.
  GedDistanceProvider(const GraphDatabase* db, const GedComputer* exact,
                      const GedComputer* approx)
      : db_(db), exact_(exact), approx_(approx != nullptr ? approx : exact) {}

  DistanceResult Exact(const QueryContext& ctx, const Graph& query,
                       GraphId id) const override {
    (void)ctx;
    return DistanceResult{exact_->Distance(query, db_->Get(id)), true};
  }

  DistanceResult Approx(const QueryContext& ctx, const Graph& query,
                        GraphId id) const override {
    (void)ctx;
    return DistanceResult{approx_->Distance(query, db_->Get(id)), true};
  }

  const GraphDatabase* db() const { return db_; }

 private:
  const GraphDatabase* db_ = nullptr;
  const GedComputer* exact_ = nullptr;
  const GedComputer* approx_ = nullptr;
};

/// \brief Per-query distance evaluator: caches d(Q, G_id) for the query's
/// lifetime, counts every computed distance as one NDC (the paper's
/// metric), and charges the GED time to the query's Stage::kGed span.
///
/// One DistanceOracle is created per query; all routing code computes
/// distances exclusively through it, so NDC is counted in exactly one
/// place. Distances come from a DistanceProvider — when a caching provider
/// is layered in, cross-query hits skip the whole GED pipeline and are
/// charged to stats->cache_hits (with a kCacheHit trace event) instead of
/// NDC, keeping the "trace holds exactly ndc kDistance events" invariant.
class DistanceOracle {
 public:
  /// Provider-backed constructor (index query path). `trace` (optional)
  /// receives one kDistance event per computed distance and one kCacheHit
  /// per cross-query hit. `scratch` (optional) donates the epoch-stamped
  /// dense distance cache, making the oracle allocation-free; without it
  /// the oracle owns one, sized to the database on construction.
  DistanceOracle(const DistanceProvider* provider, const GraphDatabase* db,
                 const QueryContext& ctx, const Graph* query,
                 SearchStats* stats, TraceSink* trace = nullptr,
                 SearchScratch* scratch = nullptr)
      : provider_(provider), db_(db), ctx_(ctx), query_(query), stats_(stats),
        trace_(trace), cache_(CacheFor(scratch)) {
    cache_->Reset(db_->size());
  }

  /// Convenience constructor for standalone callers (tests, evaluation):
  /// wraps `ged` in an owned GedDistanceProvider serving both protocols,
  /// with caching disabled (query_hash 0).
  DistanceOracle(const GraphDatabase* db, const Graph* query,
                 const GedComputer* ged, SearchStats* stats,
                 TraceSink* trace = nullptr, SearchScratch* scratch = nullptr)
      : owned_provider_(db, ged, ged), provider_(&owned_provider_), db_(db),
        query_(query), stats_(stats), trace_(trace),
        cache_(CacheFor(scratch)) {
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

  /// Looks up a memoized model score; charges stats->cache_hits and emits
  /// kCacheHit on a hit.
  bool FindScore(ResultKind kind, GraphId id, CachedScore* out) {
    StageSpan span(profile_, Stage::kCacheLookup);
    if (!provider_->FindScore(ctx_, kind, id, out)) return false;
    ChargeCacheHit(kind, id, 0.0);
    return true;
  }

  /// Offers a model score for cross-query memoization.
  void StoreScore(ResultKind kind, GraphId id, const CachedScore& value) {
    StageSpan span(profile_, Stage::kCacheLookup);
    provider_->StoreScore(ctx_, kind, id, value);
  }

  const Graph& query() const { return *query_; }
  const GraphDatabase& db() const { return *db_; }
  const DistanceProvider* provider() const { return provider_; }
  const QueryContext& context() const { return ctx_; }
  /// False when StoreScore is sure to drop its value, so callers can skip
  /// assembling the blob.
  bool caches_scores() const { return provider_->CachesScores(ctx_); }
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

  /// First-evaluation path: asks the provider, then charges either NDC
  /// (computed) or a cache hit (served from the cross-query cache).
  double ComputeDistance(GraphId id) {
    DistanceResult result;
    {
      // The span covers the provider stack: cross-query cache probes
      // (when a caching provider is layered) and the GED computation
      // itself are both charged to the ged stage.
      StageSpan span(profile_, Stage::kGed);
      result = provider_->Exact(ctx_, *query_, id);
    }
    if (result.computed) {
      if (stats_ != nullptr) ++stats_->ndc;
      if (trace_ != nullptr) {
        TraceEvent event;
        event.type = TraceEventType::kDistance;
        event.id = id;
        event.value = result.value;
        trace_->Record(event);
      }
    } else {
      ChargeCacheHit(ResultKind::kExactGed, id, result.value);
    }
    return result.value;
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

  GedDistanceProvider owned_provider_;  // backs the convenience ctor only
  const DistanceProvider* provider_;
  const GraphDatabase* db_;
  QueryContext ctx_;
  const Graph* query_;
  SearchStats* stats_;
  TraceSink* trace_;
  StageProfile* profile_ = nullptr;
  StampedDoubleMap owned_cache_;  // used when no scratch is donated
  StampedDoubleMap* cache_;
};

}  // namespace lan

#endif  // LAN_PG_DISTANCE_H_
