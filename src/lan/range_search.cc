#include "lan/range_search.h"

#include <algorithm>

#include "common/timer.h"
#include "ged/ged_lower_bounds.h"
#include "lan/learned_ranker.h"
#include "pg/np_route.h"

namespace lan {
namespace {

void SortAscending(KnnList* results) {
  std::sort(results->begin(), results->end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
}

}  // namespace

RangeSearchResult RangeSearchExact(const GraphDatabase& db, const Graph& query,
                                   double threshold, const GedComputer& ged,
                                   ThreadPool* pool) {
  RangeSearchResult out;
  Timer timer;
  // Filter: sound lower bounds — if LB > threshold the pair cannot
  // qualify, no GED needed.
  std::vector<GraphId> survivors;
  for (GraphId id = 0; id < db.size(); ++id) {
    if (!db.IsLive(id)) continue;  // tombstones are never answers
    if (BestLowerBound(query, db.Get(id)) > threshold) {
      ++out.stats.filtered;
    } else {
      survivors.push_back(id);
    }
  }
  // Verify survivors (parallel when a pool is provided).
  std::vector<double> distances(survivors.size());
  auto verify = [&](size_t i) {
    distances[i] = ged.Distance(query, db.Get(survivors[i]));
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < survivors.size(); ++i) verify(i);
  } else {
    pool->ParallelFor(survivors.size(), verify);
  }
  out.stats.verified = static_cast<int64_t>(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (distances[i] <= threshold) {
      out.results.emplace_back(survivors[i], distances[i]);
    }
  }
  SortAscending(&out.results);
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

RangeSearchResult RangeSearchApproximate(const LanIndex& index,
                                         const Graph& query, double threshold,
                                         int beam) {
  RangeSearchResult out;
  Timer timer;
  SearchStats stats;
  GedComputer ged(index.config().query_ged);
  DistanceOracle oracle(&index.db(), &query, &ged, &stats);
  // One pinned epoch for the graph, the CGs and the live mask, as in
  // LanIndex::Search.
  const std::shared_ptr<const IndexSnapshot> snap = index.Snapshot();
  const std::vector<uint8_t>& live = *snap->live;

  LazyQueryCg query_cg = index.QueryCg(query);
  LearnedNeighborRanker ranker(index.rank_model(), snap->cgs.get(), &query_cg,
                               &oracle, index.gamma_star(),
                               index.config().use_compressed_gnn);
  NpRouteOptions options;
  options.beam_size = beam;
  options.k = beam;
  options.step_size = index.config().step_size;

  const GraphId init = snap->hnsw->SelectInitialNode(&oracle);
  NpRoute(snap->hnsw->BaseLayer(), &oracle, &ranker, init, options);

  // Harvest every encountered live pair within the threshold: the
  // routing's second stage swept thresholds outward, so the cache covers
  // the query's vicinity. Tombstones are routed through, never reported.
  oracle.ForEachCached([&](GraphId id, double d) {
    if (d <= threshold && live[static_cast<size_t>(id)] != 0) {
      out.results.emplace_back(id, d);
    }
  });
  SortAscending(&out.results);
  out.stats.verified = stats.ndc;
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace lan
