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
  int64_t inferences = 0;
  int64_t encodings = 0;
  {
    StageSpan span(oracle_->profile(), Stage::kModelInference);
    const PairScorer& scorer = model_->scorer();
    const QueryEncodingCache& query_encoding =
        scorer.EncodeQuery(query_cg_, use_compressed_);
    const int32_t cross_dim = scorer.cross_dim();
    // Encode the neighbors this query has not met yet, in one batch.
    misses_.clear();
    for (GraphId n : neighbors) {
      const int32_t slot = static_cast<int32_t>(memo_slot_.size());
      if (memo_slot_.emplace(n, slot).second) misses_.push_back(n);
    }
    if (!misses_.empty()) {
      if (use_compressed_) {
        cg_batch_.clear();
        for (GraphId n : misses_) {
          cg_batch_.push_back(&(*db_cgs_)[static_cast<size_t>(n)]);
        }
        scorer.InferCross(cg_batch_, query_encoding, &encoded_,
                          oracle_->pool());
      } else {
        raw_batch_.clear();
        for (GraphId n : misses_) raw_batch_.push_back(&oracle_->db().Get(n));
        scorer.InferCross(raw_batch_, query_encoding, &encoded_,
                          oracle_->pool());
      }
      memo_rows_.insert(memo_rows_.end(), encoded_.data(),
                        encoded_.data() + encoded_.size());
      encodings = static_cast<int64_t>(misses_.size());
    }
    // This node's neighbor rows, in neighbor order.
    cross_.Reset(static_cast<int32_t>(neighbors.size()), cross_dim);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const float* row =
          memo_rows_.data() +
          static_cast<size_t>(memo_slot_.at(neighbors[i])) * cross_dim;
      std::copy(row, row + cross_dim,
                cross_.data() + i * static_cast<size_t>(cross_dim));
    }
    model_->PredictBatchesFromCross(neighbors, cross_, node,
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
