#include "lan/learned_ranker.h"

#include <algorithm>

namespace lan {

void LearnedNeighborRanker::RankNeighbors(const ProximityGraph& pg,
                                          GraphId node, const Graph& query,
                                          RankedBatches* out) {
  const std::span<const GraphId> neighbors = pg.NeighborSpan(node);
  if (neighbors.empty()) return;
  // Opened inside the routing span; nested model-inference / cache-lookup
  // spans below subtract themselves, so rerank reports batch assembly.
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

  // Cross-query memoization: M_rk's output for (query, node) depends only
  // on the query, the node's current neighbor list, and the trained
  // weights — all captured by the cache key + epoch watermark — so a hit
  // reproduces the computed batches exactly, skipping encode + forward.
  // The blob is copied straight into the caller's buffer.
  const auto copy_blob = [out](const CachedScore& cached) {
    uint32_t end = static_cast<uint32_t>(out->ids.size());
    out->ids.insert(out->ids.end(), cached.ids.begin(), cached.ids.end());
    for (int32_t size : cached.sizes) {
      end += static_cast<uint32_t>(size);
      out->ends.push_back(end);
    }
  };
  if (oracle_->ReadScore(ResultKind::kRankBatches, node, copy_blob)) return;

  SearchStats* stats = oracle_->stats();
  if (!query_cache_ready_) {
    StageSpan span(oracle_->profile(), Stage::kModelInference);
    query_cache_ = use_compressed_
                       ? model_->scorer().EncodeQuery(query_cg_->Get())
                       : model_->scorer().EncodeQuery(query);
    query_cache_ready_ = true;
  }
  const size_t first_batch = out->num_batches();
  const size_t first_id = out->ids.size();
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
        encoded = scorer.InferCross(gs, query_cache_);
      } else {
        std::vector<const Graph*> gs;
        gs.reserve(misses.size());
        for (GraphId n : misses) gs.push_back(&oracle_->db().Get(n));
        encoded = scorer.InferCross(gs, query_cache_);
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
    if (use_compressed_) {
      model_->PredictBatchesFromCross(neighbors, cross, node,
                                      (*db_cgs_)[static_cast<size_t>(node)],
                                      &inferences, out);
    } else {
      model_->PredictBatchesFromCross(neighbors, cross, node,
                                      oracle_->db().Get(node), &inferences,
                                      out);
    }
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
  CachedScore store;
  if (oracle_->caches_scores()) {
    store.ids.assign(out->ids.begin() + static_cast<ptrdiff_t>(first_id),
                     out->ids.end());
    for (size_t j = first_batch; j < out->num_batches(); ++j) {
      store.sizes.push_back(static_cast<int32_t>(out->Batch(j).size()));
    }
  }
  oracle_->StoreScore(ResultKind::kRankBatches, node, store);
}

}  // namespace lan
