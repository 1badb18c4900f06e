#ifndef LAN_LAN_RANK_MODEL_H_
#define LAN_LAN_RANK_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/embedding_matrix.h"
#include "graph/graph_database.h"
#include "lan/pair_scorer.h"
#include "nn/optimizer.h"
#include "pg/proximity_graph.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief One M_rk training triple (Q, G', G) of Sec. IV-C2 with its
/// per-head class labels: labels[i] = 1 iff G' ranks in the top (i+1)*y%
/// neighbors of G by distance to Q.
struct RankExample {
  int32_t query_index = 0;
  GraphId node = kInvalidGraphId;      // G (the routing node)
  GraphId neighbor = kInvalidGraphId;  // G'
  std::vector<float> labels;
};

/// \brief M_rk training hyperparameters.
struct RankModelOptions {
  int epochs = 10;
  int minibatch_size = 16;
  AdamOptions adam;
  uint64_t seed = 11;
};

/// \brief The learned neighbor ranking model M_rk (Sec. IV-C): 100/y
/// binary rankers over the cross-graph embedding of (G', Q) concatenated
/// with the GIN embedding of G, sharing one GNN backbone across heads.
class NeighborRankModel {
 public:
  /// `batch_percent` is the batch fraction y; the model has 100/y - 1
  /// binary heads.
  NeighborRankModel(int32_t num_labels, const PairScorerOptions& scorer,
                    int batch_percent, RankModelOptions options = {});

  int num_heads() const { return scorer_.num_heads(); }

  /// Trains on the provided triples. `db_cgs` are precomputed CGs of every
  /// database graph; `query_cgs` of every training query (index-aligned
  /// with RankExample::query_index). When `validation` is non-empty the
  /// parameters of the epoch with the lowest validation loss are kept
  /// (the paper selects the best model on validation data).
  void Train(const std::vector<CompressedGnnGraph>& db_cgs,
             const std::vector<CompressedGnnGraph>& query_cgs,
             const std::vector<RankExample>& examples,
             const std::vector<RankExample>& validation = {});

  /// Mean BCE loss over a labeled set (the validation metric, MeanPairBce).
  double EvaluateLoss(const std::vector<CompressedGnnGraph>& db_cgs,
                      const std::vector<CompressedGnnGraph>& query_cgs,
                      const std::vector<RankExample>& examples) const;

  /// Precomputes and caches the context encoder's embedding of every
  /// database graph (query independent). Call once after Train(); the
  /// predictions then skip re-encoding the routing node per neighbor.
  void PrecomputeContexts(const std::vector<CompressedGnnGraph>& db_cgs);

  /// Installs a previously computed context matrix directly (row id =
  /// graph id's context embedding) — the snapshot loader's alternative to
  /// re-running PrecomputeContexts.
  void AttachContexts(EmbeddingMatrix contexts) {
    contexts_ = std::move(contexts);
  }
  /// The cached context matrix (empty until PrecomputeContexts /
  /// AttachContexts); row id is graph id's context embedding.
  const EmbeddingMatrix& contexts() const { return contexts_; }

  /// The heads half of M_rk, and its one query-time entry: groups routing
  /// node `node`'s neighbors into predicted batches, best first, from
  /// their cross rows (row i = h_{neighbors[i], Q}, from
  /// PairScorer::InferCross on CGs or raw graphs). The context row is
  /// `node`'s cached one; a node without one (inserted after training) is
  /// encoded from its CG `node_cg`. Increments *inference_count once per
  /// neighbor scored. Appends the batches to `out` (empty predicted ranks
  /// are skipped).
  void PredictBatchesFromCross(std::span<const GraphId> neighbors,
                               const Matrix& cross, GraphId node,
                               const CompressedGnnGraph& node_cg,
                               int64_t* inference_count,
                               RankedBatches* out) const;

  /// The unmemoized reference for LearnedNeighborRanker (which reuses each
  /// neighbor's cross row across the routing nodes of one query):
  /// InferCross over `neighbors`' CGs, then PredictBatchesFromCross.
  void PredictBatches(std::span<const GraphId> neighbors,
                      const std::vector<CompressedGnnGraph>& db_cgs,
                      GraphId node, const QueryEncodingCache& query,
                      int64_t* inference_count, RankedBatches* out) const;

  const PairScorer& scorer() const { return scorer_; }
  PairScorer* mutable_scorer() { return &scorer_; }

 private:
  /// `probs` holds num_heads() probabilities per neighbor, row-major.
  void GroupByBatch(std::span<const GraphId> neighbors,
                    const std::vector<float>& probs,
                    RankedBatches* out) const;

  int batch_percent_;
  RankModelOptions options_;
  PairScorer scorer_;
  /// Row id = graph id's 1 x d context embedding (empty until
  /// PrecomputeContexts / AttachContexts).
  EmbeddingMatrix contexts_;
};

/// \brief Builds M_rk training triples from per-query distance tables:
/// for each training query Q and each PG node G inside N_Q (d(Q,G) <=
/// gamma_star), every neighbor G' of G becomes one triple labeled by its
/// distance rank among G's neighbors. Subsamples to `max_examples`.
std::vector<RankExample> BuildRankExamples(
    const ProximityGraph& pg,
    const std::vector<std::vector<double>>& query_distances,
    double gamma_star, int batch_percent, size_t max_examples, Rng* rng);

}  // namespace lan

#endif  // LAN_LAN_RANK_MODEL_H_
