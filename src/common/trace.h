#ifndef LAN_COMMON_TRACE_H_
#define LAN_COMMON_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lan {

/// \brief What happened at one point of a query's execution.
///
/// Event vocabulary (producers in parentheses):
///   kQueryBegin    — search framing: value=k, aux=beam, detail=routing,
///                    detail2=init (LanIndex::Search)
///   kClusterScore  — M_c kept cluster `id`: value=predicted |C ∩ N_Q|,
///                    aux=member count (learned_init)
///   kClusterPrune  — M_c discarded cluster `id` (same fields)
///   kInitCandidate — sampled start candidate `id` at distance `value`
///   kInitSelect    — chosen start `id`, value=distance, aux=|predicted N_Q|
///   kRouteStep     — router explored node `id`; step=step index,
///                    value=node distance, aux=NDC spent on this step
///   kBatchOpen     — np_route opened batch `step` of node `id`:
///                    value=farthest member distance, aux=batch size
///   kGammaPrune    — np_route stopped opening batches of node `id` under
///                    threshold value=gamma; step=batches opened,
///                    aux=batches pruned
///   kDistance      — DistanceOracle cache miss: d(Q, `id`) = value.
///                    Exactly one event per counted NDC.
///   kModelInference— one stacked forward pass: detail=model name,
///                    aux=rows scored by the heads, value=cross-graph
///                    rows encoded (M_rk: memo misses; M_nh: aux; M_c:
///                    0) (learned_init / learned_ranker / M_c)
///   kEpochPinned   — search pinned index epoch value=epoch with
///                    aux=live graphs in that snapshot (LanIndex::Search;
///                    emitted right after kQueryBegin)
///   kCacheHit      — the answer cache served the whole answer:
///                    detail="answer", value=answers served. The query
///                    then emits only kQueryBegin, kEpochPinned, this and
///                    kQueryEnd (LanIndex::Search)
///   kQueryEnd      — value=stats.ndc, aux=stats.routing_steps
enum class TraceEventType : int8_t {
  kQueryBegin = 0,
  kClusterScore,
  kClusterPrune,
  kInitCandidate,
  kInitSelect,
  kRouteStep,
  kBatchOpen,
  kGammaPrune,
  kDistance,
  kModelInference,
  kEpochPinned,
  kCacheHit,
  kQueryEnd,
};

/// Stable lower_snake_case name used in the JSON serialization.
const char* TraceEventTypeName(TraceEventType type);

/// \brief One structured trace record. Fields unused by an event type stay
/// at their defaults and are omitted from the JSON line.
struct TraceEvent {
  TraceEventType type = TraceEventType::kQueryBegin;
  /// Graph or cluster id, depending on `type`.
  int64_t id = -1;
  /// Step or batch index, depending on `type`.
  int64_t step = -1;
  double value = 0.0;
  double aux = 0.0;
  /// Static-lifetime tags only (routing name, model name).
  const char* detail = nullptr;
  const char* detail2 = nullptr;
};

/// \brief Receiver of trace events. Implementations must be cheap: hooks
/// sit on the query hot path and fire once per distance computation.
///
/// Hooks hold a `TraceSink*` that is null when tracing is disabled; the
/// null check is a never-taken, perfectly predicted branch, so the
/// disabled path costs nothing measurable. `NullTrace()` provides the
/// null-object instance for call sites that want an always-valid sink.
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void Record(const TraceEvent& event) = 0;
};

/// \brief Discards everything (the null object).
class NullTraceSink final : public TraceSink {
 public:
  void Record(const TraceEvent& event) override;
};

/// Shared NullTraceSink instance.
TraceSink* NullTrace();

/// Records `event` if `sink` is non-null. The single call every hook makes.
inline void TraceRecord(TraceSink* sink, const TraceEvent& event) {
  if (sink != nullptr) sink->Record(event);
}

/// \brief In-memory trace of one query, serializable as JSON lines.
///
/// Not thread-safe: one QueryTrace per concurrently-running query.
class QueryTrace final : public TraceSink {
 public:
  void Record(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

  /// Number of recorded events of `type` (invariant checks: kDistance
  /// events == SearchStats::ndc, kRouteStep events == routing_steps).
  int64_t CountOf(TraceEventType type) const;

  /// One JSON object per line; `query_id` >= 0 is attached to every line
  /// so multi-query logs stay attributable.
  void WriteJsonLines(std::ostream& out, int64_t query_id = -1) const;

  /// Serializes one event ({"type":"distance","id":12,"value":3}).
  static std::string EventToJson(const TraceEvent& event,
                                 int64_t query_id = -1);

 private:
  std::vector<TraceEvent> events_;
};

/// \brief Deterministic 1-in-N query sampler with a reusable QueryTrace
/// buffer pool — the always-on tracing front end for serving loops.
///
/// `Begin(query_id)` hands out a pooled QueryTrace (a drop-in
/// SearchOptions::trace sink recording the existing event vocabulary
/// unchanged) when the id is sampled — `query_id % every == 0` — and null
/// otherwise, so the decision is reproducible across runs and processes.
/// `End(trace)` returns the buffer to the pool; Clear() keeps the vector's
/// capacity, so steady-state sampling allocates nothing once warm. A
/// caller that wants to *retain* the events (the slow-query ring) moves
/// them out (`std::move(*trace)`) before calling End.
///
/// Thread-safe; each leased trace is owned by exactly one query.
class SamplingTraceSink {
 public:
  /// `every <= 1` samples every query; e.g. 16 keeps ids 0, 16, 32, ...
  explicit SamplingTraceSink(int64_t every);

  bool Sampled(int64_t query_id) const {
    return query_id >= 0 && query_id % every_ == 0;
  }

  /// Pooled trace for a sampled id, null otherwise.
  QueryTrace* Begin(int64_t query_id);
  /// Recycles a trace from Begin (null is a no-op).
  void End(QueryTrace* trace);

  int64_t every() const { return every_; }

 private:
  int64_t every_;
  std::mutex mu_;
  std::vector<std::unique_ptr<QueryTrace>> pool_;
};

}  // namespace lan

#endif  // LAN_COMMON_TRACE_H_
