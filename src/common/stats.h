#ifndef LAN_COMMON_STATS_H_
#define LAN_COMMON_STATS_H_

#include <cstdint>
#include <vector>

#include "common/profile.h"

namespace lan {

/// \brief Exact percentile of a sample (copies + sorts; fine at our scales).
double Percentile(std::vector<double> values, double pct);

/// \brief Per-query search statistics reported by every index in this repo.
struct SearchStats {
  /// Number of graph-distance (GED) computations: the paper's key metric.
  int64_t ndc = 0;
  /// Number of routing steps (nodes explored on the PG).
  int64_t routing_steps = 0;
  /// Number of rows scored by the learned models' heads (M_rk: one per
  /// (routing node, neighbor) pair; M_nh: one per member; M_c: one per
  /// cluster).
  int64_t model_inferences = 0;
  /// Number of cross-graph embeddings h_{G,Q} actually encoded: M_rk's
  /// per-query memo misses plus M_nh's rows. At most model_inferences.
  int64_t cross_encodings = 0;
  /// 1 when the answer cache served this query's whole answer (then ndc,
  /// routing_steps and model_inferences are 0: nothing ran), else 0.
  int64_t cache_hits = 0;
  /// Per-stage self-time breakdown, the only per-query latency record
  /// (Fig. 11's split is derived from it); populated only when the query
  /// ran with SearchOptions::profile (all-zero otherwise).
  StageBreakdown stages;

  void Merge(const SearchStats& o) {
    ndc += o.ndc;
    routing_steps += o.routing_steps;
    model_inferences += o.model_inferences;
    cross_encodings += o.cross_encodings;
    cache_hits += o.cache_hits;
    stages.Merge(o.stages);
  }
};

}  // namespace lan

#endif  // LAN_COMMON_STATS_H_
