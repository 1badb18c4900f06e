#ifndef LAN_PG_DISTANCE_H_
#define LAN_PG_DISTANCE_H_

#include <span>

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
/// place. The unit of work is a span of ids (an opened np_route batch, a
/// wave of them, an expanded Algorithm 1 row, LAN_IS's samples): the ids
/// not yet cached go to the GED computer as one batch, so their tiers fan
/// out on the pool together.
class DistanceOracle {
 public:
  /// `trace` (optional) receives one kDistance event per computed
  /// distance. `scratch` (optional) donates the epoch-stamped dense
  /// distance cache, the query's prepared form and the batch buffers,
  /// making the oracle allocation-free; without it the oracle owns them.
  /// The query is prepared once here and every distance reads the database
  /// graphs' prepared forms.
  DistanceOracle(const GraphDatabase* db, const Graph* query,
                 const GedComputer* ged, SearchStats* stats,
                 TraceSink* trace = nullptr, SearchScratch* scratch = nullptr)
      : db_(db), query_(query), ged_(ged), stats_(stats), trace_(trace),
        state_(scratch != nullptr ? &scratch->oracle : &owned_state_) {
    state_->cache.Reset(db_->size());
    PrepareGraph(*query_, &state_->query_prepared);
  }

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  /// Evaluates d(Q, db[id]) for every id of `ids` not yet cached, as one
  /// GED batch. Cached ids and repeats within the span are skipped; each
  /// new id is cached, counted as one NDC and recorded as one kDistance
  /// event, in order of first occurrence. Read the values with FindCached.
  void Evaluate(std::span<const GraphId> ids) {
    OracleScratch& st = *state_;
    st.batch_ids.clear();
    for (GraphId id : ids) {
      if (st.cache.Find(id) != nullptr) continue;
      // Claims the id, so a repeat later in the span is skipped; the value
      // is written below.
      st.cache.Insert(id, 0.0);
      st.batch_ids.push_back(id);
    }
    const size_t m = st.batch_ids.size();
    if (m == 0) return;
    st.batch_targets.resize(m);
    st.batch_values.resize(m);
    for (size_t i = 0; i < m; ++i) {
      st.batch_targets[i] = {&db_->Get(st.batch_ids[i]),
                             &db_->Prepared(st.batch_ids[i])};
    }
    {
      // One span for the batch, counting one kGed visit per distance.
      StageSpan span(profile_, Stage::kGed, static_cast<int64_t>(m));
      ged_->ComputeBatch(*query_, st.query_prepared, st.batch_targets, pool_,
                         st.batch_values);
    }
    for (size_t i = 0; i < m; ++i) {
      const GraphId id = st.batch_ids[i];
      const double value = st.batch_values[i].distance;
      st.cache.Insert(id, value);
      if (trace_ != nullptr) {
        TraceEvent event;
        event.type = TraceEventType::kDistance;
        event.id = id;
        event.value = value;
        trace_->Record(event);
      }
    }
    if (stats_ != nullptr) stats_->ndc += static_cast<int64_t>(m);
  }

  /// d(Q, db[id]) under the query protocol: one array probe when cached,
  /// else the one-id Evaluate.
  double Distance(GraphId id) {
    if (const double* found = FindCached(id)) return *found;
    Evaluate({&id, 1});
    return *FindCached(id);
  }

  /// True if d(Q, db[id]) has already been evaluated for this query.
  bool IsCached(GraphId id) const { return FindCached(id) != nullptr; }

  /// The per-query cached distance, or nullptr if not evaluated yet — one
  /// probe where IsCached + Distance would take two.
  const double* FindCached(GraphId id) const { return state_->cache.Find(id); }

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
  /// Evaluate batch and the chunks of each cross-encoding pass (null: all on
  /// the calling thread). Fan-out never changes a value.
  ThreadPool* pool() const { return pool_; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  const GraphDatabase* db_;
  const Graph* query_;
  const GedComputer* ged_;
  SearchStats* stats_;
  TraceSink* trace_;
  StageProfile* profile_ = nullptr;
  ThreadPool* pool_ = nullptr;
  OracleScratch owned_state_;  // used when no scratch is donated
  OracleScratch* state_;
};

}  // namespace lan

#endif  // LAN_PG_DISTANCE_H_
