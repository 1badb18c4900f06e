#ifndef LAN_LAN_LEARNED_INIT_H_
#define LAN_LAN_LEARNED_INIT_H_

#include <span>
#include <vector>

#include "common/random.h"
#include "gnn/cross_graph.h"
#include "gnn/embedding.h"
#include "lan/cluster_model.h"
#include "lan/kmeans.h"
#include "lan/neighborhood_model.h"
#include "pg/distance.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief LAN_IS knobs.
struct LanInitOptions {
  /// Number of samples s drawn from the predicted neighborhood (Lemma 2:
  /// success probability 1 - (1-p)^s; the paper uses s = 4).
  int samples = 4;
  /// How many top-predicted clusters M_nh scans.
  int max_clusters = 4;
};

/// \brief LAN_IS (Sec. V): the learned initial-node selector.
///
/// Pipeline per query: M_c scores every KMeans cluster; M_nh scores the
/// members of the top clusters and keeps those at or above its calibrated
/// threshold (NeighborhoodModel::calibrated_threshold); s graphs sampled
/// from the kept set get their true distances computed (counted NDC) and
/// the best becomes the routing start. Falls back to a random node when
/// the kept set is empty.
///
/// Constructed once per query.
class LanInitialSelector {
 public:
  LanInitialSelector(const NeighborhoodModel* nh_model,
                     const ClusterModel* cluster_model,
                     const KMeansResult* clusters,
                     const std::vector<CompressedGnnGraph>* db_cgs,
                     LazyQueryCg* query_cg,
                     const EmbeddingOptions* embedding_options,
                     bool use_compressed, LanInitOptions options)
      : nh_model_(nh_model), cluster_model_(cluster_model),
        clusters_(clusters), db_cgs_(db_cgs),
        query_cg_(query_cg), embedding_options_(embedding_options),
        use_compressed_(use_compressed), options_(options) {}

  GraphId Select(DistanceOracle* oracle, Rng* rng);

  /// Optional per-query scratch: Select's gather buffers (candidate list,
  /// cluster scan order) reuse the scratch's storage instead of allocating.
  void set_scratch(SearchScratch* scratch) { scratch_ = scratch; }

  /// The predicted neighborhood of the last Select call (for diagnostics).
  const std::vector<GraphId>& last_predicted_neighborhood() const {
    return predicted_;
  }

 private:
  /// Runs M_nh over the members of `scanned` (in order) and fills
  /// predicted_ with the kept ones; returns the number of rows scored.
  int64_t PredictKeptSet(DistanceOracle* oracle,
                         std::span<const size_t> scanned);

  const NeighborhoodModel* nh_model_;
  const ClusterModel* cluster_model_;
  const KMeansResult* clusters_;
  const std::vector<CompressedGnnGraph>* db_cgs_;
  LazyQueryCg* query_cg_;
  const EmbeddingOptions* embedding_options_;
  bool use_compressed_;
  LanInitOptions options_;
  SearchScratch* scratch_ = nullptr;
  std::vector<GraphId> predicted_;
  /// M_nh's candidate batch, cross rows and probabilities.
  std::vector<const CompressedGnnGraph*> cg_batch_;
  std::vector<const Graph*> raw_batch_;
  Matrix cross_;
  std::vector<float> probs_;
};

}  // namespace lan

#endif  // LAN_LAN_LEARNED_INIT_H_
