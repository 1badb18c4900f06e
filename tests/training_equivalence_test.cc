// The shared epoch loop (lan/train_loop.h) against the three training
// loops it replaced. Each reference below is the loop M_rk, M_nh or M_c
// ran on its own before the loop was shared, written against the public
// model API: a fresh model of the same architecture and seed is trained
// both ways, and every parameter must come out with the same bits, at
// every SIMD level the host runs, together with M_nh's calibrated
// threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph_generator.h"
#include "lan/cluster_model.h"
#include "lan/ground_truth.h"
#include "lan/neighborhood_model.h"
#include "lan/pair_scorer.h"
#include "lan/rank_model.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "pg/proximity_graph.h"

namespace lan {
namespace {

constexpr int kLayers = 2;

PairScorerOptions TinyScorer() {
  PairScorerOptions o;
  o.gnn_dims = {8, 8};
  o.mlp_hidden = 8;
  return o;
}

std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels;
  for (int level = 0; level <= static_cast<int>(DetectedSimdLevel());
       ++level) {
    levels.push_back(static_cast<SimdLevel>(level));
  }
  return levels;
}

void ExpectSameBits(const ParamStore& got, const ParamStore& want) {
  const std::vector<Matrix> a = got.SnapshotValues();
  const std::vector<Matrix> b = want.SnapshotValues();
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].rows(), b[p].rows()) << "param " << p;
    ASSERT_EQ(a[p].cols(), b[p].cols()) << "param " << p;
    EXPECT_EQ(std::memcmp(a[p].data(), b[p].data(),
                          a[p].size() * sizeof(float)),
              0)
        << "param " << p;
  }
}

// ---- The references: the per-model loops before the shared one. ----

double ReferenceRankLoss(const PairScorer& scorer,
                         const std::vector<CompressedGnnGraph>& db_cgs,
                         const std::vector<CompressedGnnGraph>& query_cgs,
                         const std::vector<RankExample>& examples) {
  if (examples.empty()) return 0.0;
  const int heads = scorer.num_heads();
  double total = 0.0;
  for (const RankExample& ex : examples) {
    Tape tape(/*inference_mode=*/true);
    const VarId logits = scorer.ForwardCompressed(
        &tape, db_cgs[static_cast<size_t>(ex.neighbor)],
        query_cgs[static_cast<size_t>(ex.query_index)],
        &db_cgs[static_cast<size_t>(ex.node)]);
    Matrix targets(1, heads);
    for (int h = 0; h < heads; ++h) {
      targets.at(0, h) = ex.labels[static_cast<size_t>(h)];
    }
    const Matrix& z = tape.value(logits);
    for (int h = 0; h < heads; ++h) {
      const float zi = z.at(0, h);
      const float ti = targets.at(0, h);
      total += std::max(zi, 0.0f) - zi * ti +
               std::log1p(std::exp(-std::abs(zi)));
    }
  }
  return total / (static_cast<double>(examples.size()) * heads);
}

void ReferenceRankTrain(PairScorer* scorer, const RankModelOptions& options,
                        const std::vector<CompressedGnnGraph>& db_cgs,
                        const std::vector<CompressedGnnGraph>& query_cgs,
                        const std::vector<RankExample>& examples,
                        const std::vector<RankExample>& validation) {
  if (examples.empty()) return;
  const int heads = scorer->num_heads();
  Adam adam(scorer->params(), options.adam);
  Rng rng(options.seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double best_validation = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_params;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    int in_batch = 0;
    for (size_t idx : order) {
      const RankExample& ex = examples[idx];
      Tape tape;
      const VarId logits = scorer->ForwardCompressed(
          &tape, db_cgs[static_cast<size_t>(ex.neighbor)],
          query_cgs[static_cast<size_t>(ex.query_index)],
          &db_cgs[static_cast<size_t>(ex.node)]);
      Matrix targets(1, heads);
      for (int h = 0; h < heads; ++h) {
        targets.at(0, h) = ex.labels[static_cast<size_t>(h)];
      }
      const VarId loss = tape.BceWithLogits(logits, targets);
      tape.Backward(loss);
      if (++in_batch >= options.minibatch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    adam.OnEpochEnd();
    if (!validation.empty()) {
      const double v =
          ReferenceRankLoss(*scorer, db_cgs, query_cgs, validation);
      if (v < best_validation) {
        best_validation = v;
        best_params = scorer->params()->SnapshotValues();
      }
    }
  }
  if (!best_params.empty()) scorer->params()->RestoreValues(best_params);
}

float ReferenceNhProb(const PairScorer& scorer, const CompressedGnnGraph& g,
                      const CompressedGnnGraph& q) {
  Tape tape(/*inference_mode=*/true);
  const Matrix& logits =
      tape.value(scorer.ForwardCompressed(&tape, g, q, nullptr));
  std::vector<float> out(logits.data(),
                         logits.data() + static_cast<size_t>(logits.cols()));
  ActiveKernels().sigmoid(out.data(), static_cast<int64_t>(out.size()));
  return out[0];
}

double ReferenceNhLoss(const PairScorer& scorer,
                       const std::vector<CompressedGnnGraph>& db_cgs,
                       const std::vector<CompressedGnnGraph>& query_cgs,
                       const std::vector<NeighborhoodExample>& examples) {
  if (examples.empty()) return 0.0;
  double total = 0.0;
  for (const NeighborhoodExample& ex : examples) {
    Tape tape(/*inference_mode=*/true);
    const VarId logits = scorer.ForwardCompressed(
        &tape, db_cgs[static_cast<size_t>(ex.graph)],
        query_cgs[static_cast<size_t>(ex.query_index)], nullptr);
    const float z = tape.value(logits).at(0, 0);
    total += std::max(z, 0.0f) - z * ex.label +
             std::log1p(std::exp(-std::abs(z)));
  }
  return total / static_cast<double>(examples.size());
}

/// Returns the calibrated threshold.
float ReferenceNhTrain(PairScorer* scorer,
                       const NeighborhoodModelOptions& options,
                       const std::vector<CompressedGnnGraph>& db_cgs,
                       const std::vector<CompressedGnnGraph>& query_cgs,
                       const std::vector<NeighborhoodExample>& examples,
                       const std::vector<NeighborhoodExample>& validation) {
  float calibrated = 0.5f;
  if (examples.empty()) return calibrated;
  double best_validation = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_params;
  Adam adam(scorer->params(), options.adam);
  Rng rng(options.seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    int in_batch = 0;
    for (size_t idx : order) {
      const NeighborhoodExample& ex = examples[idx];
      Tape tape;
      const VarId logits = scorer->ForwardCompressed(
          &tape, db_cgs[static_cast<size_t>(ex.graph)],
          query_cgs[static_cast<size_t>(ex.query_index)], nullptr);
      Matrix target(1, 1);
      target.at(0, 0) = ex.label;
      const VarId loss = tape.BceWithLogits(logits, target);
      tape.Backward(loss);
      if (++in_batch >= options.minibatch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    adam.OnEpochEnd();
    if (!validation.empty()) {
      const double v = ReferenceNhLoss(*scorer, db_cgs, query_cgs, validation);
      if (v < best_validation) {
        best_validation = v;
        best_params = scorer->params()->SnapshotValues();
      }
    }
  }
  if (!best_params.empty()) scorer->params()->RestoreValues(best_params);

  if (!validation.empty()) {
    std::vector<float> probs;
    probs.reserve(validation.size());
    for (const NeighborhoodExample& ex : validation) {
      probs.push_back(
          ReferenceNhProb(*scorer, db_cgs[static_cast<size_t>(ex.graph)],
                          query_cgs[static_cast<size_t>(ex.query_index)]));
    }
    float best_threshold = 0.5f;
    double best_f1 = -1.0;
    for (float threshold : {0.3f, 0.4f, 0.5f, 0.6f, 0.7f, 0.8f}) {
      int64_t tp = 0, fp = 0, fn = 0;
      for (size_t i = 0; i < validation.size(); ++i) {
        const bool predicted = probs[i] >= threshold;
        const bool actual = validation[i].label > 0.5f;
        tp += predicted && actual;
        fp += predicted && !actual;
        fn += !predicted && actual;
      }
      if (tp == 0) continue;
      const double precision = static_cast<double>(tp) / (tp + fp);
      const double recall = static_cast<double>(tp) / (tp + fn);
      const double f1 = 2 * precision * recall / (precision + recall);
      if (f1 > best_f1) {
        best_f1 = f1;
        best_threshold = threshold;
      }
    }
    calibrated = best_threshold;
  }
  return calibrated;
}

void ReferenceClusterTrain(
    const Mlp& mlp, ParamStore* store, const ClusterModelOptions& options,
    const std::vector<std::vector<float>>& query_embeddings,
    const EmbeddingMatrix& centroids,
    const std::vector<std::vector<float>>& intersection_counts) {
  if (query_embeddings.empty() || centroids.empty()) return;
  Adam adam(store, options.adam);
  Rng rng(options.seed);
  const size_t num_centroids = static_cast<size_t>(centroids.rows());
  struct Item {
    size_t query;
    size_t cluster;
  };
  std::vector<Item> items;
  for (size_t q = 0; q < query_embeddings.size(); ++q) {
    for (size_t c = 0; c < num_centroids; ++c) items.push_back({q, c});
  }
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&items);
    int in_batch = 0;
    for (const Item& item : items) {
      Tape tape;
      const std::vector<float>& query = query_embeddings[item.query];
      const std::span<const float> centroid =
          centroids.Row(static_cast<int64_t>(item.cluster));
      Matrix features(1, static_cast<int32_t>(query.size() + centroid.size()));
      int32_t j = 0;
      for (float x : query) features.at(0, j++) = x;
      for (float x : centroid) features.at(0, j++) = x;
      const VarId x = tape.Input(features);
      const VarId pred = mlp.Forward(&tape, x);
      Matrix target(1, 1);
      target.at(0, 0) =
          std::log1p(intersection_counts[item.query][item.cluster]);
      const VarId loss = tape.MseLoss(pred, target);
      tape.Backward(loss);
      if (++in_batch >= options.minibatch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    adam.OnEpochEnd();
  }
}

// ---- Fixture: a small database, a random PG, and three queries. ----

class TrainingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = GenerateDatabase(DatasetSpec::SynLike(24), 61);
    GedOptions ged_options;
    ged_options.approximate_only = true;
    ged_options.beam_width = 0;
    const GedComputer ged(ged_options);
    Rng rng(62);
    std::vector<std::pair<GraphId, GraphId>> edges;
    for (GraphId i = 0; i < db_.size(); ++i) {
      for (int e = 0; e < 4; ++e) {
        const GraphId j = static_cast<GraphId>(
            rng.NextBounded(static_cast<uint64_t>(db_.size())));
        if (i != j) edges.emplace_back(i, j);
      }
    }
    pg_ = ProximityGraph::FromEdges(db_.size(), edges).value();
    for (GraphId id = 0; id < db_.size(); ++id) {
      db_cgs_.push_back(BuildCompressedGnnGraph(db_.Get(id), kLayers));
    }
    for (int q = 0; q < 3; ++q) {
      const Graph query = GenerateGraph(DatasetSpec::SynLike(1), &rng);
      query_cgs_.push_back(BuildCompressedGnnGraph(query, kLayers));
      distances_.push_back(ComputeAllDistances(db_, query, ged));
    }
    std::vector<double> all;
    for (const auto& d : distances_) all.insert(all.end(), d.begin(), d.end());
    std::nth_element(all.begin(), all.begin() + all.size() / 3, all.end());
    gamma_star_ = all[all.size() / 3];
  }

  void TearDown() override { SetActiveSimdLevel(DetectedSimdLevel()); }

  /// Moves the last fifth of `examples` into `validation`, as Train does.
  template <typename Example>
  static std::vector<Example> SplitValidation(std::vector<Example>* examples) {
    const size_t valid_count = examples->size() / 5;
    std::vector<Example> validation(
        examples->end() - static_cast<ptrdiff_t>(valid_count),
        examples->end());
    examples->resize(examples->size() - valid_count);
    return validation;
  }

  GraphDatabase db_;
  ProximityGraph pg_;
  std::vector<CompressedGnnGraph> db_cgs_;
  std::vector<CompressedGnnGraph> query_cgs_;
  std::vector<std::vector<double>> distances_;
  double gamma_star_ = 0.0;
};

TEST_F(TrainingEquivalenceTest, RankModelMatchesItsOwnLoop) {
  Rng rng(63);
  std::vector<RankExample> examples = BuildRankExamples(
      pg_, distances_, gamma_star_, /*batch_percent=*/25,
      /*max_examples=*/150, &rng);
  const std::vector<RankExample> validation = SplitValidation(&examples);
  ASSERT_FALSE(validation.empty());
  RankModelOptions options;
  options.epochs = 3;
  options.minibatch_size = 7;  // leaves a partial batch every epoch
  ASSERT_NE(examples.size() % 7, 0u);
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    for (const bool validate : {true, false}) {
      SCOPED_TRACE(validate ? "with validation" : "without validation");
      const std::vector<RankExample> valid =
          validate ? validation : std::vector<RankExample>{};
      NeighborRankModel model(db_.num_labels(), TinyScorer(),
                              /*batch_percent=*/25, options);
      model.Train(db_cgs_, query_cgs_, examples, valid);
      PairScorer reference(db_.num_labels(), TinyScorer(), /*num_heads=*/3,
                           /*context=*/true);
      ReferenceRankTrain(&reference, options, db_cgs_, query_cgs_, examples,
                         valid);
      ExpectSameBits(model.scorer().params(), std::as_const(reference).params());
      EXPECT_EQ(model.EvaluateLoss(db_cgs_, query_cgs_, validation),
                ReferenceRankLoss(reference, db_cgs_, query_cgs_, validation));
    }
  }
}

TEST_F(TrainingEquivalenceTest, NeighborhoodModelMatchesItsOwnLoop) {
  Rng rng(64);
  std::vector<NeighborhoodExample> examples = BuildNeighborhoodExamples(
      distances_, gamma_star_, /*negative_ratio=*/3.0, /*max_examples=*/60,
      &rng);
  const std::vector<NeighborhoodExample> validation =
      SplitValidation(&examples);
  ASSERT_FALSE(validation.empty());
  NeighborhoodModelOptions options;
  options.epochs = 4;
  options.minibatch_size = 5;
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    NeighborhoodModel model(db_.num_labels(), TinyScorer(), options);
    model.Train(db_cgs_, query_cgs_, examples, validation);
    PairScorer reference(db_.num_labels(), TinyScorer(), /*num_heads=*/1,
                         /*context=*/false);
    const float threshold = ReferenceNhTrain(
        &reference, options, db_cgs_, query_cgs_, examples, validation);
    ExpectSameBits(model.scorer().params(), std::as_const(reference).params());
    EXPECT_EQ(model.calibrated_threshold(), threshold);
  }
}

TEST_F(TrainingEquivalenceTest, ClusterModelMatchesItsOwnLoop) {
  constexpr int32_t kDim = 6;
  constexpr int64_t kClusters = 5;
  Rng rng(65);
  std::vector<std::vector<float>> query_embeddings(4,
                                                   std::vector<float>(kDim));
  for (auto& q : query_embeddings) {
    for (float& x : q) x = rng.NextFloat(-1.0f, 1.0f);
  }
  EmbeddingMatrix centroids(kClusters, kDim);
  for (int64_t c = 0; c < kClusters; ++c) {
    for (int32_t j = 0; j < kDim; ++j) {
      centroids.MutableRow(c)[j] = rng.NextFloat(-1.0f, 1.0f);
    }
  }
  std::vector<std::vector<float>> counts(
      query_embeddings.size(), std::vector<float>(kClusters));
  for (auto& row : counts) {
    for (float& x : row) x = static_cast<float>(rng.NextBounded(6));
  }
  ClusterModelOptions options;
  options.epochs = 7;
  options.minibatch_size = 3;  // 20 items: a partial batch every epoch
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    ClusterModel model(2 * kDim, options);
    model.Train(query_embeddings, centroids, counts);
    ParamStore store;
    Rng init(options.seed);
    const Mlp mlp({2 * kDim, options.mlp_hidden, 1}, &store, &init);
    ReferenceClusterTrain(mlp, &store, options, query_embeddings, centroids,
                          counts);
    ExpectSameBits(std::as_const(model).params(), store);
  }
}

}  // namespace
}  // namespace lan
