#include "lan/rank_model.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "lan/train_loop.h"
#include "pg/neighbor_ranker.h"

namespace lan {

namespace {

/// M_rk's head count for batch fraction y: 100/y - 1, at least one.
int RankHeads(int batch_percent) {
  LAN_CHECK_GT(batch_percent, 0);
  LAN_CHECK_LE(batch_percent, 100);
  return std::max(1, 100 / batch_percent - 1);
}

PairExample RankPair(const RankExample& ex,
                     const std::vector<CompressedGnnGraph>& db_cgs,
                     const std::vector<CompressedGnnGraph>& query_cgs) {
  return {&db_cgs[static_cast<size_t>(ex.neighbor)],
          &query_cgs[static_cast<size_t>(ex.query_index)],
          &db_cgs[static_cast<size_t>(ex.node)], ex.labels};
}

}  // namespace

NeighborRankModel::NeighborRankModel(int32_t num_labels,
                                     const PairScorerOptions& scorer,
                                     int batch_percent,
                                     RankModelOptions options)
    : batch_percent_(batch_percent),
      options_(options),
      scorer_(num_labels, scorer, RankHeads(batch_percent),
              /*context=*/true) {}

void NeighborRankModel::Train(const std::vector<CompressedGnnGraph>& db_cgs,
                              const std::vector<CompressedGnnGraph>& query_cgs,
                              const std::vector<RankExample>& examples,
                              const std::vector<RankExample>& validation) {
  std::function<double()> validation_loss;
  if (!validation.empty()) {
    validation_loss = [&] {
      return EvaluateLoss(db_cgs, query_cgs, validation);
    };
  }
  RunEpochLoop(
      scorer_.params(), examples.size(),
      {options_.epochs, options_.minibatch_size, options_.adam,
       options_.seed},
      [&](Tape* tape, size_t i) {
        return PairBceLoss(scorer_, RankPair(examples[i], db_cgs, query_cgs),
                           tape);
      },
      validation_loss);
}

double NeighborRankModel::EvaluateLoss(
    const std::vector<CompressedGnnGraph>& db_cgs,
    const std::vector<CompressedGnnGraph>& query_cgs,
    const std::vector<RankExample>& examples) const {
  return MeanPairBce(scorer_, examples.size(), [&](size_t i) {
    return RankPair(examples[i], db_cgs, query_cgs);
  });
}

namespace {

struct Scored {
  GraphId id;
  int batch;
  float score;
};

/// Per-thread working storage of GroupByBatch and the heads.
struct RankScratch {
  std::vector<float> probs;
  std::vector<Scored> scored;
  std::vector<GraphId> ranked;
};

RankScratch& ThreadRankScratch() {
  static thread_local RankScratch scratch;
  return scratch;
}

}  // namespace

void NeighborRankModel::GroupByBatch(std::span<const GraphId> neighbors,
                                     const std::vector<float>& probs,
                                     RankedBatches* out) const {
  const int num_batches = num_heads() + 1;
  const size_t heads = static_cast<size_t>(num_heads());
  RankScratch& s = ThreadRankScratch();
  std::vector<Scored>& scored = s.scored;
  scored.clear();
  for (size_t i = 0; i < neighbors.size(); ++i) {
    int batch = num_batches - 1;
    float score = 0.0f;
    for (int h = 0; h < num_heads(); ++h) {
      const float p = probs[i * heads + static_cast<size_t>(h)];
      score += p;
      if (p >= 0.5f && h < batch) batch = h;
    }
    scored.push_back({neighbors[i], batch, score});
  }
  // A stable insertion sort (a neighbor list is short): the order of
  // std::stable_sort without its temporary buffer.
  const auto before = [](const Scored& a, const Scored& b) {
    if (a.batch != b.batch) return a.batch < b.batch;
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  for (size_t i = 1; i < scored.size(); ++i) {
    const Scored item = scored[i];
    size_t j = i;
    for (; j > 0 && before(item, scored[j - 1]); --j) scored[j] = scored[j - 1];
    scored[j] = item;
  }
  // Split the predicted ranking into y% batches positionally (the same
  // batch geometry the oracle uses), so pruning strength matches the
  // design and only ranking accuracy affects recall. Grouping by raw head
  // votes instead would under-prune whenever the heads are optimistic.
  std::vector<GraphId>& ranked = s.ranked;
  ranked.clear();
  for (const Scored& item : scored) ranked.push_back(item.id);
  SplitIntoBatches(ranked, batch_percent_, out);
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
    const QueryEncodingCache& query, int64_t* inference_count,
    RankedBatches* out) const {
  std::vector<const CompressedGnnGraph*> gs;
  gs.reserve(neighbors.size());
  for (GraphId n : neighbors) gs.push_back(&db_cgs[static_cast<size_t>(n)]);
  Matrix cross;
  scorer_.InferCross(gs, query, &cross);
  PredictBatchesFromCross(neighbors, cross, node,
                          db_cgs[static_cast<size_t>(node)], inference_count,
                          out);
}

void NeighborRankModel::PredictBatchesFromCross(
    std::span<const GraphId> neighbors, const Matrix& cross, GraphId node,
    const CompressedGnnGraph& node_cg, int64_t* inference_count,
    RankedBatches* out) const {
  LAN_CHECK_EQ(static_cast<size_t>(cross.rows()), neighbors.size());
  if (inference_count != nullptr) {
    *inference_count += static_cast<int64_t>(neighbors.size());
  }
  std::vector<float>& probs = ThreadRankScratch().probs;
  if (static_cast<int64_t>(node) < contexts_.rows()) {
    scorer_.InferHeads(cross, contexts_.Row(node), &probs);
  } else {
    const Matrix ctx = scorer_.ContextEmbedding(node_cg);
    scorer_.InferHeads(cross, {ctx.data(), static_cast<size_t>(ctx.cols())},
                       &probs);
  }
  GroupByBatch(neighbors, probs, out);
}

std::vector<RankExample> BuildRankExamples(
    const ProximityGraph& pg,
    const std::vector<std::vector<double>>& query_distances,
    double gamma_star, int batch_percent, size_t max_examples, Rng* rng) {
  const int num_heads = RankHeads(batch_percent);
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
