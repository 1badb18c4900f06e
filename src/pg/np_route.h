#ifndef LAN_PG_NP_ROUTE_H_
#define LAN_PG_NP_ROUTE_H_

#include "pg/beam_search.h"
#include "pg/neighbor_ranker.h"

namespace lan {

/// \brief Parameters of np_route (Algorithm 2).
struct NpRouteOptions {
  /// Beam size b of the candidate pool W.
  int beam_size = 16;
  /// Number of answers k.
  int k = 10;
  /// Threshold increment d_s of the second routing stage.
  double step_size = 1.0;
  /// Optional tombstone bitmap (indexed by GraphId, 0 = removed). Dead
  /// nodes are routed through — the PG stays navigable — but filtered out
  /// of the answers. Must outlive the NpRoute call.
  const std::vector<uint8_t>* live = nullptr;
};

/// \brief Routing with neighbor pruning (Algorithms 2-4, Sec. IV).
///
/// Stage 1 routes greedily from `init` to the first local optimum, using
/// the current node's own distance as the batch-opening threshold. Stage 2
/// backtracks under a growing threshold gamma (incremented by
/// `step_size`), re-qualifying neighbors of explored nodes against each
/// new gamma. With an oracle ranker this returns exactly the Algorithm 1
/// result with no more distance computations (Theorem 1).
///
/// `scratch` (optional) donates the per-query routing state; when null the
/// calling thread's scratch is leased.
RoutingResult NpRoute(const ProximityGraph& pg, DistanceOracle* oracle,
                      NeighborRanker* ranker, GraphId init,
                      const NpRouteOptions& options,
                      SearchScratch* scratch = nullptr);

/// Out-param variant: writes into `out`, reusing its results' capacity
/// (cleared first).
void NpRouteInto(const ProximityGraph& pg, DistanceOracle* oracle,
                 NeighborRanker* ranker, GraphId init,
                 const NpRouteOptions& options, SearchScratch* scratch,
                 RoutingResult* out);

}  // namespace lan

#endif  // LAN_PG_NP_ROUTE_H_
