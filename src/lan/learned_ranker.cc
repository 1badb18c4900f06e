#include "lan/learned_ranker.h"

#include <algorithm>

namespace lan {

void LearnedNeighborRanker::RankNeighbors(const ProximityGraph& pg,
                                          GraphId node, const Graph& query,
                                          RankedBatches* out) {
  const std::span<const GraphId> neighbors = pg.NeighborSpan(node);
  if (neighbors.empty()) return;
  // Opened inside the routing span; the nested model-inference spans
  // below subtract themselves, so rerank reports batch assembly.
  StageSpan rerank_span(oracle_->profile(), Stage::kRerank);

  // Outside N_Q (or before the node's own distance is known) the router
  // must not prune: one batch containing everything.
  const double* node_distance = oracle_->FindCached(node);
  const bool in_neighborhood =
      node_distance != nullptr && *node_distance <= gamma_star_;
  if (!in_neighborhood) {
    out->AppendBatch(neighbors);
    return;
  }

  SearchStats* stats = oracle_->stats();
  if (!query_cache_ready_) {
    StageSpan span(oracle_->profile(), Stage::kModelInference);
    query_cache_ = use_compressed_
                       ? model_->scorer().EncodeQuery(query_cg_->Get())
                       : model_->scorer().EncodeQuery(query);
    query_cache_ready_ = true;
  }
  int64_t inferences = 0;
  int64_t encodings = 0;
  {
    StageSpan span(oracle_->profile(), Stage::kModelInference);
    const PairScorer& scorer = model_->scorer();
    const int32_t cross_dim = scorer.cross_dim();
    // Encode the neighbors this query has not met yet, in one batch.
    std::vector<GraphId> misses;
    for (GraphId n : neighbors) {
      const int32_t slot = static_cast<int32_t>(memo_slot_.size());
      if (memo_slot_.emplace(n, slot).second) misses.push_back(n);
    }
    if (!misses.empty()) {
      Matrix encoded;
      if (use_compressed_) {
        std::vector<const CompressedGnnGraph*> gs;
        gs.reserve(misses.size());
        for (GraphId n : misses) {
          gs.push_back(&(*db_cgs_)[static_cast<size_t>(n)]);
        }
        encoded = scorer.InferCross(gs, query_cache_, oracle_->pool());
      } else {
        std::vector<const Graph*> gs;
        gs.reserve(misses.size());
        for (GraphId n : misses) gs.push_back(&oracle_->db().Get(n));
        encoded = scorer.InferCross(gs, query_cache_, oracle_->pool());
      }
      memo_rows_.insert(memo_rows_.end(), encoded.data(),
                        encoded.data() + encoded.size());
      encodings = static_cast<int64_t>(misses.size());
    }
    // This node's neighbor rows, in neighbor order.
    Matrix cross(static_cast<int32_t>(neighbors.size()), cross_dim);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const float* row =
          memo_rows_.data() +
          static_cast<size_t>(memo_slot_.at(neighbors[i])) * cross_dim;
      std::copy(row, row + cross_dim,
                cross.data() + i * static_cast<size_t>(cross_dim));
    }
    model_->PredictBatchesFromCross(neighbors, cross, node,
                                    (*db_cgs_)[static_cast<size_t>(node)],
                                    &inferences, out);
  }
  if (stats != nullptr) {
    stats->model_inferences += inferences;
    stats->cross_encodings += encodings;
  }
  if (TraceSink* sink = oracle_->trace(); sink != nullptr && inferences > 0) {
    TraceEvent event;
    event.type = TraceEventType::kModelInference;
    event.id = node;
    event.detail = "M_rk";
    event.value = static_cast<double>(encodings);
    event.aux = static_cast<double>(inferences);
    sink->Record(event);
  }
}

}  // namespace lan
