#ifndef LAN_PG_DISTANCE_H_
#define LAN_PG_DISTANCE_H_

#include "common/profile.h"
#include "common/stats.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "graph/graph_database.h"
#include "pg/search_scratch.h"

namespace lan {

class ThreadPool;

/// \brief Per-query distance evaluator: caches d(Q, G_id) for the query's
/// lifetime, counts every computed distance as one NDC (the paper's
/// metric), and charges the GED time to the query's Stage::kGed span.
///
/// One DistanceOracle is created per query; all routing code computes
/// distances exclusively through it, so NDC is counted in exactly one
/// place.
class DistanceOracle {
 public:
  /// `trace` (optional) receives one kDistance event per computed
  /// distance. `scratch` (optional) donates the epoch-stamped dense
  /// distance cache and the query's prepared form, making the oracle
  /// allocation-free; without it the oracle owns both. The query is
  /// prepared once here and every distance reads the database graphs'
  /// prepared forms.
  DistanceOracle(const GraphDatabase* db, const Graph* query,
                 const GedComputer* ged, SearchStats* stats,
                 TraceSink* trace = nullptr, SearchScratch* scratch = nullptr)
      : db_(db), query_(query), ged_(ged), stats_(stats), trace_(trace),
        cache_(scratch != nullptr ? &scratch->distance_cache : &owned_cache_),
        query_prepared_(scratch != nullptr ? &scratch->query_prepared
                                           : &owned_prepared_) {
    cache_->Reset(db_->size());
    PrepareGraph(*query_, query_prepared_);
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
  /// probe where IsCached + Distance would take two.
  const double* FindCached(GraphId id) const { return cache_->Find(id); }

  const Graph& query() const { return *query_; }
  const GraphDatabase& db() const { return *db_; }
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

  /// The pool this query's inner loops fan out on: the GED tiers of each
  /// distance and the chunks of each cross-encoding pass (null: all on the
  /// calling thread). Fan-out never changes a value.
  ThreadPool* pool() const { return pool_; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  /// First-evaluation path: computes d(Q, db[id]), charged as one NDC
  /// and to the query's ged stage.
  double ComputeDistance(GraphId id) {
    double value = 0.0;
    {
      StageSpan span(profile_, Stage::kGed);
      value = ged_->Compute(*query_, *query_prepared_, db_->Get(id),
                            db_->Prepared(id), pool_)
                  .distance;
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

  const GraphDatabase* db_;
  const Graph* query_;
  const GedComputer* ged_;
  SearchStats* stats_;
  TraceSink* trace_;
  StageProfile* profile_ = nullptr;
  ThreadPool* pool_ = nullptr;
  StampedDoubleMap owned_cache_;  // used when no scratch is donated
  StampedDoubleMap* cache_;
  PreparedGraph owned_prepared_;  // used when no scratch is donated
  PreparedGraph* query_prepared_;
};

}  // namespace lan

#endif  // LAN_PG_DISTANCE_H_
