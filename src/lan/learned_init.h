#ifndef LAN_LAN_LEARNED_INIT_H_
#define LAN_LAN_LEARNED_INIT_H_

#include <vector>

#include "gnn/embedding.h"
#include "lan/cluster_model.h"
#include "lan/kmeans.h"
#include "lan/neighborhood_model.h"
#include "pg/init_selector.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief LAN_IS knobs.
struct LanInitOptions {
  /// Number of samples s drawn from the predicted neighborhood (Lemma 2:
  /// success probability 1 - (1-p)^s; the paper uses s = 4).
  int samples = 4;
  /// How many top-predicted clusters M_nh scans.
  int max_clusters = 4;
  /// M_nh positive threshold.
  float threshold = 0.5f;
};

/// \brief LAN_IS (Sec. V): the learned initial-node selector.
///
/// Pipeline per query: M_c scores every KMeans cluster; M_nh scores the
/// members of the top clusters; s graphs sampled from the predicted
/// neighborhood get their true distances computed (counted NDC) and the
/// best becomes the routing start. Falls back to a random node when the
/// predicted neighborhood is empty.
///
/// Constructed once per query (it caches the query CG / embedding).
class LanInitialSelector : public InitialSelector {
 public:
  LanInitialSelector(const NeighborhoodModel* nh_model,
                     const ClusterModel* cluster_model,
                     const KMeansResult* clusters,
                     const std::vector<CompressedGnnGraph>* db_cgs,
                     const CompressedGnnGraph* query_cg,
                     const EmbeddingOptions* embedding_options,
                     bool use_compressed, LanInitOptions options)
      : nh_model_(nh_model), cluster_model_(cluster_model),
        clusters_(clusters), db_cgs_(db_cgs),
        query_cg_(query_cg), embedding_options_(embedding_options),
        use_compressed_(use_compressed), options_(options) {}

  GraphId Select(DistanceOracle* oracle, Rng* rng) override;

  /// Optional per-query scratch: Select's gather buffers (candidate list,
  /// cluster scan order) reuse the scratch's storage instead of allocating.
  void set_scratch(SearchScratch* scratch) { scratch_ = scratch; }

  /// The predicted neighborhood of the last Select call (for diagnostics).
  const std::vector<GraphId>& last_predicted_neighborhood() const {
    return predicted_;
  }

 private:
  const NeighborhoodModel* nh_model_;
  const ClusterModel* cluster_model_;
  const KMeansResult* clusters_;
  const std::vector<CompressedGnnGraph>* db_cgs_;
  const CompressedGnnGraph* query_cg_;
  const EmbeddingOptions* embedding_options_;
  bool use_compressed_;
  LanInitOptions options_;
  SearchScratch* scratch_ = nullptr;
  std::vector<GraphId> predicted_;
};

}  // namespace lan

#endif  // LAN_LAN_LEARNED_INIT_H_
