#include "lan/rank_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "pg/neighbor_ranker.h"

namespace lan {

NeighborRankModel::NeighborRankModel(int32_t num_labels,
                                     RankModelOptions options)
    : options_([&options] {
        LAN_CHECK_GT(options.batch_percent, 0);
        LAN_CHECK_LE(options.batch_percent, 100);
        options.scorer.num_heads =
            std::max(1, 100 / options.batch_percent - 1);
        options.scorer.include_context_embedding = true;
        return options;
      }()),
      scorer_(num_labels, options_.scorer) {}

void NeighborRankModel::Train(const std::vector<CompressedGnnGraph>& db_cgs,
                              const std::vector<CompressedGnnGraph>& query_cgs,
                              const std::vector<RankExample>& examples,
                              const std::vector<RankExample>& validation) {
  if (examples.empty()) return;
  Adam adam(scorer_.params(), options_.adam);
  Rng rng(options_.seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double best_validation = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_params;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    int in_batch = 0;
    for (size_t idx : order) {
      const RankExample& ex = examples[idx];
      LAN_CHECK_EQ(static_cast<int>(ex.labels.size()), num_heads());
      Tape tape;
      const VarId logits = scorer_.ForwardCompressed(
          &tape, db_cgs[static_cast<size_t>(ex.neighbor)],
          query_cgs[static_cast<size_t>(ex.query_index)],
          &db_cgs[static_cast<size_t>(ex.node)]);
      Matrix targets(1, num_heads());
      for (int h = 0; h < num_heads(); ++h) {
        targets.at(0, h) = ex.labels[static_cast<size_t>(h)];
      }
      const VarId loss = tape.BceWithLogits(logits, targets);
      tape.Backward(loss);
      if (++in_batch >= options_.minibatch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    adam.OnEpochEnd();
    if (!validation.empty()) {
      const double v = EvaluateLoss(db_cgs, query_cgs, validation);
      if (v < best_validation) {
        best_validation = v;
        best_params = scorer_.params()->SnapshotValues();
      }
    }
  }
  if (!best_params.empty()) scorer_.params()->RestoreValues(best_params);
}

double NeighborRankModel::EvaluateLoss(
    const std::vector<CompressedGnnGraph>& db_cgs,
    const std::vector<CompressedGnnGraph>& query_cgs,
    const std::vector<RankExample>& examples) const {
  if (examples.empty()) return 0.0;
  double total = 0.0;
  for (const RankExample& ex : examples) {
    Tape tape(/*inference_mode=*/true);
    const VarId logits = scorer_.ForwardCompressed(
        &tape, db_cgs[static_cast<size_t>(ex.neighbor)],
        query_cgs[static_cast<size_t>(ex.query_index)],
        &db_cgs[static_cast<size_t>(ex.node)]);
    Matrix targets(1, num_heads());
    for (int h = 0; h < num_heads(); ++h) {
      targets.at(0, h) = ex.labels[static_cast<size_t>(h)];
    }
    // Forward-only BCE (constant leaf logits would skip grad anyway).
    const Matrix& z = tape.value(logits);
    for (int h = 0; h < num_heads(); ++h) {
      const float zi = z.at(0, h);
      const float ti = targets.at(0, h);
      total += std::max(zi, 0.0f) - zi * ti +
               std::log1p(std::exp(-std::abs(zi)));
    }
  }
  return total / (static_cast<double>(examples.size()) * num_heads());
}

void NeighborRankModel::GroupByBatch(
    std::span<const GraphId> neighbors,
    const std::vector<std::vector<float>>& probs, RankedBatches* out) const {
  const int num_batches = num_heads() + 1;
  struct Scored {
    GraphId id;
    int batch;
    float score;
  };
  std::vector<Scored> scored;
  scored.reserve(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    int batch = num_batches - 1;
    float score = 0.0f;
    for (int h = 0; h < num_heads(); ++h) {
      score += probs[i][static_cast<size_t>(h)];
      if (probs[i][static_cast<size_t>(h)] >= 0.5f && h < batch) batch = h;
    }
    scored.push_back({neighbors[i], batch, score});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.batch != b.batch) return a.batch < b.batch;
                     if (a.score != b.score) return a.score > b.score;
                     return a.id < b.id;
                   });
  // Split the predicted ranking into y% batches positionally (the same
  // batch geometry the oracle uses), so pruning strength matches the
  // design and only ranking accuracy affects recall. Grouping by raw head
  // votes instead would under-prune whenever the heads are optimistic.
  std::vector<GraphId> ranked;
  ranked.reserve(scored.size());
  for (const Scored& s : scored) ranked.push_back(s.id);
  SplitIntoBatches(ranked, options_.batch_percent, out);
}

void NeighborRankModel::PrecomputeContexts(
    const std::vector<CompressedGnnGraph>& db_cgs) {
  EmbeddingMatrix contexts;
  for (const CompressedGnnGraph& cg : db_cgs) {
    const Matrix row = scorer_.ContextEmbedding(cg);
    if (contexts.empty()) {
      // The context dim is only known from the first row; reserving before
      // it was a silent no-op under the old Reserve(rows) signature.
      contexts.Reserve(static_cast<int64_t>(db_cgs.size()),
                       static_cast<int32_t>(row.cols()));
    }
    contexts.AppendRow({row.data(), static_cast<size_t>(row.cols())});
  }
  contexts_ = std::move(contexts);
}

void NeighborRankModel::PredictBatches(
    std::span<const GraphId> neighbors,
    const std::vector<CompressedGnnGraph>& db_cgs, GraphId node,
    const CompressedGnnGraph& query_cg, int64_t* inference_count,
    RankedBatches* out) const {
  PredictBatches(neighbors, db_cgs, node, scorer_.EncodeQuery(query_cg),
                 inference_count, out);
}

void NeighborRankModel::PredictBatches(
    std::span<const GraphId> neighbors,
    const std::vector<CompressedGnnGraph>& db_cgs, GraphId node,
    const QueryEncodingCache& query, int64_t* inference_count,
    RankedBatches* out) const {
  std::vector<const CompressedGnnGraph*> gs;
  gs.reserve(neighbors.size());
  for (GraphId n : neighbors) gs.push_back(&db_cgs[static_cast<size_t>(n)]);
  PredictBatchesFromCross(neighbors, scorer_.InferCross(gs, query), node,
                          db_cgs[static_cast<size_t>(node)], inference_count,
                          out);
}

template <typename G>
std::vector<std::vector<float>> NeighborRankModel::HeadProbs(
    const Matrix& cross, GraphId node, const G& node_graph) const {
  if (static_cast<int64_t>(node) < contexts_.rows()) {
    return scorer_.InferHeads(cross, contexts_.Row(node));
  }
  const Matrix ctx = scorer_.ContextEmbedding(node_graph);
  return scorer_.InferHeads(cross,
                            {ctx.data(), static_cast<size_t>(ctx.cols())});
}

void NeighborRankModel::PredictBatchesFromCross(
    std::span<const GraphId> neighbors, const Matrix& cross, GraphId node,
    const CompressedGnnGraph& node_cg, int64_t* inference_count,
    RankedBatches* out) const {
  LAN_CHECK_EQ(static_cast<size_t>(cross.rows()), neighbors.size());
  if (inference_count != nullptr) {
    *inference_count += static_cast<int64_t>(neighbors.size());
  }
  GroupByBatch(neighbors, HeadProbs(cross, node, node_cg), out);
}

void NeighborRankModel::PredictBatchesFromCross(
    std::span<const GraphId> neighbors, const Matrix& cross, GraphId node,
    const Graph& node_graph, int64_t* inference_count,
    RankedBatches* out) const {
  LAN_CHECK_EQ(static_cast<size_t>(cross.rows()), neighbors.size());
  if (inference_count != nullptr) {
    *inference_count += static_cast<int64_t>(neighbors.size());
  }
  GroupByBatch(neighbors, HeadProbs(cross, node, node_graph), out);
}

std::vector<RankExample> BuildRankExamples(
    const ProximityGraph& pg,
    const std::vector<std::vector<double>>& query_distances,
    double gamma_star, int batch_percent, size_t max_examples, Rng* rng) {
  LAN_CHECK_GT(batch_percent, 0);
  const int num_heads = std::max(1, 100 / batch_percent - 1);
  std::vector<RankExample> examples;

  for (size_t qi = 0; qi < query_distances.size(); ++qi) {
    const std::vector<double>& dist = query_distances[qi];
    LAN_CHECK_EQ(static_cast<GraphId>(dist.size()), pg.NumNodes());
    for (GraphId g = 0; g < pg.NumNodes(); ++g) {
      if (dist[static_cast<size_t>(g)] > gamma_star) continue;  // G not in N_Q
      const std::span<const GraphId> neighbors = pg.NeighborSpan(g);
      if (neighbors.empty()) continue;
      // Rank neighbors by true distance.
      std::vector<size_t> order(neighbors.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const double da = dist[static_cast<size_t>(neighbors[a])];
        const double db = dist[static_cast<size_t>(neighbors[b])];
        if (da != db) return da < db;
        return neighbors[a] < neighbors[b];
      });
      for (size_t rank = 0; rank < order.size(); ++rank) {
        RankExample ex;
        ex.query_index = static_cast<int32_t>(qi);
        ex.node = g;
        ex.neighbor = neighbors[order[rank]];
        // Percentile of this neighbor among G's neighbors.
        const double pct = 100.0 * static_cast<double>(rank + 1) /
                           static_cast<double>(order.size());
        ex.labels.resize(static_cast<size_t>(num_heads));
        for (int h = 0; h < num_heads; ++h) {
          const double top = static_cast<double>((h + 1) * batch_percent);
          ex.labels[static_cast<size_t>(h)] = pct <= top ? 1.0f : 0.0f;
        }
        examples.push_back(std::move(ex));
      }
    }
  }
  if (examples.size() > max_examples) {
    rng->Shuffle(&examples);
    examples.resize(max_examples);
  }
  return examples;
}

}  // namespace lan
