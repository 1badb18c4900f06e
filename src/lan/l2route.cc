#include "lan/l2route.h"

#include <algorithm>

#include "common/logging.h"

namespace lan {

L2RouteIndex L2RouteIndex::Build(const GraphDatabase& db,
                                 const L2RouteOptions& options,
                                 ThreadPool* pool) {
  L2RouteIndex index;
  index.options_ = options;
  index.embeddings_ = EmbedDatabase(db, options.embedding);
  const auto& embeddings = index.embeddings_;
  index.hnsw_ = HnswIndex::BuildWithDistance(
      db.size(),
      [&embeddings](GraphId a, GraphId b) {
        return SquaredL2(embeddings.Row(a), embeddings.Row(b));
      },
      options.hnsw, pool);
  return index;
}

RoutingResult L2RouteIndex::Search(DistanceOracle* oracle, int ef,
                                   int k) const {
  // Route purely in embedding space; keep the whole beam as candidates.
  const std::vector<float> q = EmbedGraph(oracle->query(), options_.embedding);
  auto l2 = [this, &q](GraphId id) {
    return SquaredL2(q, embeddings_.Row(id));
  };
  const GraphId init = hnsw_.SelectInitialNodeFn(l2);
  const RoutingResult routed =
      BeamSearchRouteFn(hnsw_.BaseLayer(), l2, init, ef, ef);

  // GED re-rank (the only NDC this method pays).
  RoutingResult out;
  out.routing_steps = routed.routing_steps;
  out.results.reserve(routed.results.size());
  for (const auto& [id, l2d] : routed.results) {
    out.results.emplace_back(id, oracle->Distance(id));
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  if (out.results.size() > static_cast<size_t>(k)) {
    out.results.resize(static_cast<size_t>(k));
  }
  if (oracle->stats() != nullptr) {
    oracle->stats()->routing_steps += routed.routing_steps;
  }
  return out;
}

}  // namespace lan
