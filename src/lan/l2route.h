#ifndef LAN_LAN_L2ROUTE_H_
#define LAN_LAN_L2ROUTE_H_

#include <vector>

#include "common/thread_pool.h"
#include "gnn/embedding.h"
#include "pg/hnsw.h"

namespace lan {

/// \brief L2route baseline configuration.
struct L2RouteOptions {
  EmbeddingOptions embedding;
  HnswOptions hnsw;
};

/// \brief The L2route baseline of Sec. VII: graphs are converted to
/// embedding vectors, a similarity graph is built in L2 space, and routing
/// runs on vector distances. Final candidates are re-ranked with GED
/// through the query's DistanceOracle, so only the re-ranking contributes
/// to NDC — mirroring the paper's adaptation of the learned router to
/// graph data.
class L2RouteIndex {
 public:
  static L2RouteIndex Build(const GraphDatabase& db,
                            const L2RouteOptions& options,
                            ThreadPool* pool = nullptr);

  /// Routes in embedding space with beam `ef`, then re-ranks the pooled
  /// candidates by GED. Larger `ef` trades time for recall.
  RoutingResult Search(DistanceOracle* oracle, int ef, int k) const;

  const HnswIndex& hnsw() const { return hnsw_; }
  const EmbeddingMatrix& embeddings() const { return embeddings_; }

 private:
  L2RouteOptions options_;
  EmbeddingMatrix embeddings_;
  HnswIndex hnsw_;
};

}  // namespace lan

#endif  // LAN_LAN_L2ROUTE_H_
