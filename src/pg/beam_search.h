#ifndef LAN_PG_BEAM_SEARCH_H_
#define LAN_PG_BEAM_SEARCH_H_

#include <functional>
#include <utility>
#include <vector>

#include "pg/distance.h"
#include "pg/proximity_graph.h"
#include "pg/search_scratch.h"

namespace lan {

// RoutingResult is defined in pg/search_scratch.h (so SearchScratch can
// own a reusable one) and re-exported here.

/// \brief Algorithm 1: greedy beam-search routing on a proximity graph
/// (the baseline router, also HNSW's base-layer search).
///
/// Explores the best unexplored candidate, computes distances for *all*
/// its PG neighbors, resizes the pool to `beam_size`, and stops when every
/// pooled candidate is explored. Every distance goes through `oracle`, so
/// stats/NDC accounting is automatic. `live` (optional) filters
/// tombstoned ids out of the answers; dead nodes are still traversed so
/// the graph stays navigable. `scratch` (optional) donates the per-query
/// state; when null the calling thread's scratch is leased, so the steady
/// state allocates nothing either way.
RoutingResult BeamSearchRoute(const ProximityGraph& pg, DistanceOracle* oracle,
                              GraphId init, int beam_size, int k,
                              const std::vector<uint8_t>* live = nullptr,
                              SearchScratch* scratch = nullptr);

/// Allocation-free variant: writes into `out`, reusing its results'
/// capacity (cleared first).
void BeamSearchRouteInto(const ProximityGraph& pg, DistanceOracle* oracle,
                         GraphId init, int beam_size, int k,
                         const std::vector<uint8_t>* live,
                         SearchScratch* scratch, RoutingResult* out);

/// Algorithm 1 over an arbitrary distance callback (must be cheap or do
/// its own caching; called once per (step, neighbor) encounter). Used by
/// the L2route baseline, whose routing distances are vector L2 rather than
/// GED.
///
/// `sink` (optional) receives one kRouteStep event per explored node;
/// `ndc_probe` (optional) reports the query's NDC so far, letting each
/// step event carry the distances it spent (aux field); `live` (optional)
/// filters tombstoned ids out of the answers.
RoutingResult BeamSearchRouteFn(const ProximityGraph& pg,
                                const std::function<double(GraphId)>& distance,
                                GraphId init, int beam_size, int k,
                                TraceSink* sink = nullptr,
                                const std::function<int64_t()>& ndc_probe = {},
                                const std::vector<uint8_t>* live = nullptr,
                                SearchScratch* scratch = nullptr);

/// Out-param variant of BeamSearchRouteFn (see BeamSearchRouteInto).
void BeamSearchRouteFnInto(const ProximityGraph& pg,
                           const std::function<double(GraphId)>& distance,
                           GraphId init, int beam_size, int k,
                           TraceSink* sink,
                           const std::function<int64_t()>& ndc_probe,
                           const std::vector<uint8_t>* live,
                           SearchScratch* scratch, RoutingResult* out);

}  // namespace lan

#endif  // LAN_PG_BEAM_SEARCH_H_
