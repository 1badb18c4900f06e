#include "lan/cluster_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "lan/train_loop.h"

namespace lan {

ClusterModel::ClusterModel(int32_t feature_dim, ClusterModelOptions options)
    : feature_dim_(feature_dim), options_(options) {
  Rng rng(options_.seed);
  mlp_ = Mlp({feature_dim_, options_.mlp_hidden, 1}, &store_, &rng);
}

Matrix ClusterModel::BuildFeatures(const std::vector<float>& query_embedding,
                                   std::span<const float> centroid) const {
  LAN_CHECK_EQ(static_cast<int32_t>(query_embedding.size() + centroid.size()),
               feature_dim_);
  Matrix features(1, feature_dim_);
  int32_t j = 0;
  for (float x : query_embedding) features.at(0, j++) = x;
  for (float x : centroid) features.at(0, j++) = x;
  return features;
}

void ClusterModel::Train(
    const std::vector<std::vector<float>>& query_embeddings,
    const EmbeddingMatrix& centroids,
    const std::vector<std::vector<float>>& intersection_counts) {
  LAN_CHECK_EQ(query_embeddings.size(), intersection_counts.size());
  const size_t num_centroids = static_cast<size_t>(centroids.rows());
  for (const std::vector<float>& counts : intersection_counts) {
    LAN_CHECK_EQ(counts.size(), num_centroids);
  }
  // Example i is the (query i / |C|, cluster i % |C|) pair.
  RunEpochLoop(
      &store_, query_embeddings.size() * num_centroids,
      {options_.epochs, options_.minibatch_size, options_.adam,
       options_.seed},
      [&](Tape* tape, size_t i) {
        const size_t query = i / num_centroids;
        const size_t cluster = i % num_centroids;
        const VarId x = tape->Input(
            BuildFeatures(query_embeddings[query],
                          centroids.Row(static_cast<int64_t>(cluster))));
        const VarId pred = mlp_.Forward(tape, x);
        Matrix target(1, 1);
        target.at(0, 0) = std::log1p(intersection_counts[query][cluster]);
        return tape->MseLoss(pred, target);
      });
}

std::vector<float> ClusterModel::PredictCounts(
    const std::vector<float>& query_embedding,
    const EmbeddingMatrix& centroids, TraceSink* trace) const {
  if (centroids.empty()) return {};
  const size_t num_centroids = static_cast<size_t>(centroids.rows());
  if (trace != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kModelInference;
    event.detail = "M_c";
    event.aux = static_cast<double>(num_centroids);
    trace->Record(event);
  }
  Matrix features(static_cast<int32_t>(num_centroids), feature_dim_);
  for (size_t c = 0; c < num_centroids; ++c) {
    const std::span<const float> centroid =
        centroids.Row(static_cast<int64_t>(c));
    LAN_CHECK_EQ(
        static_cast<int32_t>(query_embedding.size() + centroid.size()),
        feature_dim_);
    int32_t j = 0;
    const int32_t row = static_cast<int32_t>(c);
    for (float x : query_embedding) features.at(row, j++) = x;
    for (float x : centroid) features.at(row, j++) = x;
  }
  Matrix preds, hidden;
  mlp_.InferForward(features.data(), features.rows(), &preds, &hidden);
  std::vector<float> out;
  out.reserve(num_centroids);
  for (int32_t c = 0; c < preds.rows(); ++c) {
    out.push_back(std::max(0.0f, std::expm1(preds.at(c, 0))));
  }
  return out;
}

std::vector<float> ClusterModel::PredictCountsReference(
    const std::vector<float>& query_embedding,
    const EmbeddingMatrix& centroids) const {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(centroids.rows()));
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    Tape tape(/*inference_mode=*/true);
    const VarId x =
        tape.Input(BuildFeatures(query_embedding, centroids.Row(c)));
    const VarId pred = mlp_.Forward(&tape, x);
    out.push_back(std::max(0.0f, std::expm1(tape.value(pred).at(0, 0))));
  }
  return out;
}

}  // namespace lan
