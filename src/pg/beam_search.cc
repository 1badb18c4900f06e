#include "pg/beam_search.h"

#include <span>

#include "common/logging.h"
#include "pg/candidate_pool.h"

namespace lan {

void BeamSearchRouteFnInto(const ProximityGraph& pg,
                           const std::function<double(GraphId)>& distance,
                           GraphId init, int beam_size, int k,
                           TraceSink* sink,
                           const std::function<int64_t()>& ndc_probe,
                           const std::vector<uint8_t>* live,
                           SearchScratch* scratch, RoutingResult* out) {
  LAN_CHECK_GE(init, 0);
  LAN_CHECK_LT(init, pg.NumNodes());
  ScratchLease lease(scratch);
  SearchScratch& s = *lease.get();
  s.route_states.Reset(pg.NumNodes());
  // Memoization so the callback is hit once per node (epoch-stamped: O(1)
  // reset, no per-query map).
  s.route_memo.Reset(pg.NumNodes());
  CandidatePool pool(&s.route_states, &s.pool_entries);
  int64_t clock = 0;
  auto dist = [&s, &distance](GraphId id) {
    if (const double* found = s.route_memo.Find(id)) return *found;
    const double d = distance(id);
    s.route_memo.Insert(id, d);
    return d;
  };

  out->results.clear();
  out->routing_steps = 0;

  int64_t ndc_at_last_step = ndc_probe ? ndc_probe() : 0;
  pool.Add(init, dist(init));
  for (;;) {
    const GraphId current = pool.BestUnexplored();
    if (current == kInvalidGraphId) break;
    // neigh_explore: distances for every neighbor of the current node.
    // The CSR row is contiguous (NeighborSpan), and each neighbor's own
    // row is hinted one iteration ahead — by the time the beam advances
    // to it, its adjacency is usually already in cache.
    const std::span<const GraphId> neighbors = pg.NeighborSpan(current);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (i + 1 < neighbors.size()) pg.PrefetchNeighbors(neighbors[i + 1]);
      pool.Add(neighbors[i], dist(neighbors[i]));
    }
    s.route_states.MarkExplored(current, clock++);
    if (sink != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kRouteStep;
      event.id = current;
      event.step = out->routing_steps;
      event.value = dist(current);
      if (ndc_probe) {
        const int64_t ndc_now = ndc_probe();
        event.aux = static_cast<double>(ndc_now - ndc_at_last_step);
        ndc_at_last_step = ndc_now;
      }
      sink->Record(event);
    }
    ++out->routing_steps;
    pool.Resize(beam_size);
  }
  pool.TopKInto(k, live, &s.pool_sort, &out->results);
}

RoutingResult BeamSearchRouteFn(const ProximityGraph& pg,
                                const std::function<double(GraphId)>& distance,
                                GraphId init, int beam_size, int k,
                                TraceSink* sink,
                                const std::function<int64_t()>& ndc_probe,
                                const std::vector<uint8_t>* live,
                                SearchScratch* scratch) {
  RoutingResult out;
  BeamSearchRouteFnInto(pg, distance, init, beam_size, k, sink, ndc_probe,
                        live, scratch, &out);
  return out;
}

void BeamSearchRouteInto(const ProximityGraph& pg, DistanceOracle* oracle,
                         GraphId init, int beam_size, int k,
                         const std::vector<uint8_t>* live,
                         SearchScratch* scratch, RoutingResult* out) {
  // GED evaluations inside the traversal open their own nested span, so
  // this stage reports the traversal's self-time (pool and adjacency
  // work), not distance time.
  StageSpan span(oracle->profile(), Stage::kBeamSearch);
  // Both lambdas capture one pointer, so the std::function wrappers stay
  // within the small-buffer optimization — no heap allocation.
  BeamSearchRouteFnInto(
      pg, [oracle](GraphId id) { return oracle->Distance(id); }, init,
      beam_size, k, oracle->trace(),
      [oracle]() {
        SearchStats* stats = oracle->stats();
        return stats != nullptr ? stats->ndc : 0;
      },
      live, scratch, out);
  if (oracle->stats() != nullptr) {
    oracle->stats()->routing_steps += out->routing_steps;
  }
}

RoutingResult BeamSearchRoute(const ProximityGraph& pg, DistanceOracle* oracle,
                              GraphId init, int beam_size, int k,
                              const std::vector<uint8_t>* live,
                              SearchScratch* scratch) {
  RoutingResult out;
  BeamSearchRouteInto(pg, oracle, init, beam_size, k, live, scratch, &out);
  return out;
}

}  // namespace lan
