#ifndef LAN_LAN_CLUSTER_MODEL_H_
#define LAN_LAN_CLUSTER_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/trace.h"
#include "gnn/embedding_matrix.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace lan {

/// \brief M_c hyperparameters.
struct ClusterModelOptions {
  int32_t mlp_hidden = 32;
  int epochs = 60;
  int minibatch_size = 8;
  AdamOptions adam;
  uint64_t seed = 17;
};

/// \brief The cluster-level model M_c of the optimized M_nh design
/// (Sec. V-B2): predicts |C ∩ N_Q| for each KMeans cluster C from the
/// query's embedding and the cluster centroid, so that M_nh only scores
/// members of the most promising clusters.
///
/// Regression target is log1p(count) — the intersection-size distribution
/// is skewed, as the paper observes.
class ClusterModel {
 public:
  /// `feature_dim` = query-embedding dim + centroid dim.
  ClusterModel(int32_t feature_dim, ClusterModelOptions options);

  ClusterModel(const ClusterModel&) = delete;
  ClusterModel& operator=(const ClusterModel&) = delete;

  /// Trains on |queries| x |clusters| intersection counts. `centroids`
  /// row c is cluster c's centroid.
  void Train(const std::vector<std::vector<float>>& query_embeddings,
             const EmbeddingMatrix& centroids,
             const std::vector<std::vector<float>>& intersection_counts);

  /// Predicted |C ∩ N_Q| per cluster (>= 0). All clusters are scored with
  /// one stacked MLP forward (one GEMM per layer). `trace` (optional)
  /// receives one kModelInference event covering the stacked batch.
  std::vector<float> PredictCounts(
      const std::vector<float>& query_embedding,
      const EmbeddingMatrix& centroids,
      TraceSink* trace = nullptr) const;

  /// Per-cluster tape-based reference path; equals PredictCounts bit for
  /// bit (kept for the batched-equivalence tests and the microbench).
  std::vector<float> PredictCountsReference(
      const std::vector<float>& query_embedding,
      const EmbeddingMatrix& centroids) const;

  ParamStore* params() { return &store_; }
  const ParamStore& params() const { return store_; }

 private:
  Matrix BuildFeatures(const std::vector<float>& query_embedding,
                       std::span<const float> centroid) const;

  int32_t feature_dim_;
  ClusterModelOptions options_;
  ParamStore store_;
  Mlp mlp_;
};

}  // namespace lan

#endif  // LAN_LAN_CLUSTER_MODEL_H_
