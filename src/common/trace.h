#ifndef LAN_COMMON_TRACE_H_
#define LAN_COMMON_TRACE_H_

#include <cstdint>
#include <iosfwd>
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
/// disabled path costs nothing measurable.
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void Record(const TraceEvent& event) = 0;
};

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

/// \brief Deterministic 1-in-N query sampler — the always-on tracing
/// front end for serving loops.
///
/// A query id is sampled when `query_id % every == 0`, so the decision is
/// reproducible across runs and processes; the caller records a sampled
/// query into a QueryTrace it owns (`lan_tool serve` records straight into
/// the query's slow-ring record).
class SamplingTraceSink {
 public:
  /// `every` >= 1: 1 samples every query; e.g. 16 keeps ids 0, 16, 32, ...
  explicit SamplingTraceSink(int64_t every);

  /// Anonymous (negative) ids are never sampled.
  bool Sampled(int64_t query_id) const {
    return query_id >= 0 && query_id % every_ == 0;
  }

  int64_t every() const { return every_; }

 private:
  int64_t every_;
};

}  // namespace lan

#endif  // LAN_COMMON_TRACE_H_
