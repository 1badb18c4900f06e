#ifndef LAN_LAN_LEARNED_RANKER_H_
#define LAN_LAN_LEARNED_RANKER_H_

#include <unordered_map>
#include <vector>

#include "lan/rank_model.h"
#include "pg/neighbor_ranker.h"

namespace lan {

/// \brief Per-query NeighborRanker backed by M_rk (Sec. IV-C).
///
/// The model is consulted only when the routing node lies inside the
/// query's neighborhood (its cached distance <= gamma_star); everywhere
/// else all neighbors are returned as one batch, i.e., no pruning — the
/// design constraint that motivates learned initial node selection.
///
/// Each neighbor's cross-graph row h_{G',Q} depends only on (G', Q): the
/// routing node G joins M_rk's features only at the heads, as its context
/// row. So the ranker keeps a per-query memo from GraphId to cross row. A
/// routing node encodes only its neighbors not yet in the memo (one
/// batched InferCross call), then runs the heads over all its neighbors'
/// rows. Rows and head probabilities do not depend on batch composition
/// (docs/kernels.md, contract 4), so the batches equal the unmemoized
/// NeighborRankModel::PredictBatches bit for bit. The memo is always on.
///
/// Model time is charged to the kModelInference stage, each neighbor
/// scored by the heads to SearchStats::model_inferences, and each memo
/// miss to SearchStats::cross_encodings.
class LearnedNeighborRanker : public NeighborRanker {
 public:
  LearnedNeighborRanker(const NeighborRankModel* model,
                        const std::vector<CompressedGnnGraph>* db_cgs,
                        LazyQueryCg* query_cg,
                        DistanceOracle* oracle, double gamma_star,
                        bool use_compressed)
      : model_(model), db_cgs_(db_cgs), query_cg_(query_cg), oracle_(oracle),
        gamma_star_(gamma_star), use_compressed_(use_compressed) {}

  void RankNeighbors(const ProximityGraph& pg, GraphId node,
                     const Graph& query, RankedBatches* out) override;

 private:
  const NeighborRankModel* model_;
  const std::vector<CompressedGnnGraph>* db_cgs_;
  LazyQueryCg* query_cg_;
  DistanceOracle* oracle_;
  double gamma_star_;
  bool use_compressed_;
  /// Reused per routing node: the memo misses, their candidate batch,
  /// their encoded rows and the node's neighbor rows.
  std::vector<GraphId> misses_;
  std::vector<const CompressedGnnGraph*> cg_batch_;
  std::vector<const Graph*> raw_batch_;
  Matrix encoded_;
  Matrix cross_;
  /// The per-query memo: memo_slot_[G'] is the row of h_{G',Q} in
  /// memo_rows_ (row-major, cross_dim floats per row).
  std::unordered_map<GraphId, int32_t> memo_slot_;
  std::vector<float> memo_rows_;
};

}  // namespace lan

#endif  // LAN_LAN_LEARNED_RANKER_H_
