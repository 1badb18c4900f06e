#ifndef LAN_LAN_RANGE_SEARCH_H_
#define LAN_LAN_RANGE_SEARCH_H_

#include "lan/ground_truth.h"
#include "lan/lan_index.h"

namespace lan {

/// \brief Statistics of one range query.
struct RangeSearchStats {
  /// Candidates eliminated by the cheap lower-bound filters (no GED).
  int64_t filtered = 0;
  /// Full GED verifications performed.
  int64_t verified = 0;
  double seconds = 0.0;
};

/// \brief One range query's answer: every live (id, distance) with
/// d(Q, G) <= threshold, ascending. Tombstoned graphs are never reported.
struct RangeSearchResult {
  KnnList results;
  RangeSearchStats stats;
};

/// \brief Exact range query by the classic graph-database filter-verify
/// pipeline (the setting of the paper's reference [9]): cheap sound lower
/// bounds (size / label-multiset / degree) eliminate most candidates, the
/// survivors are verified with full GED. Always exact w.r.t. the GED
/// protocol in `ged`.
RangeSearchResult RangeSearchExact(const GraphDatabase& db, const Graph& query,
                                   double threshold, const GedComputer& ged,
                                   ThreadPool* pool = nullptr);

/// \brief Approximate range query on a trained LAN index: routes to the
/// query's neighborhood with np_route (whose second stage already sweeps
/// distance thresholds), then reports every *encountered* graph within the
/// threshold. Recall < 1 is possible — the trade the paper makes for k-ANN
/// applies to ranges too — but every reported pair is genuine.
RangeSearchResult RangeSearchApproximate(const LanIndex& index,
                                         const Graph& query, double threshold,
                                         int beam);

}  // namespace lan

#endif  // LAN_LAN_RANGE_SEARCH_H_
