#ifndef LAN_LAN_PAIR_SCORER_H_
#define LAN_LAN_PAIR_SCORER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gnn/cross_graph.h"
#include "gnn/gin.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace lan {

/// \brief Configuration shared by the learned components M_rk and M_nh.
struct PairScorerOptions {
  /// Output dims of the cross-graph GNN layers (paper: 128-dim; we default
  /// smaller for CPU training).
  std::vector<int32_t> gnn_dims = {32, 32};
  int32_t mlp_hidden = 64;
  /// Number of binary heads (M_rk uses 100/y - 1; M_nh uses 1).
  int num_heads = 1;
  /// If true, the current node G's GIN embedding is concatenated to the
  /// cross embedding (the M_rk design of Sec. IV-C1).
  bool include_context_embedding = false;
  uint64_t seed = 7;
};

/// \brief Cross-graph-embedding classifier shared by the neighbor ranking
/// model (Sec. IV-C) and the neighborhood prediction model (Sec. V-B).
///
/// Per pair (G, Q): logits_i = MLP_i( h_{G,Q} [|| h_ctx] ), where h_{G,Q}
/// is the cross-graph embedding (Definition 1 / Definition 3) and h_ctx an
/// optional GIN embedding of a context graph (the routing node for M_rk).
///
/// Inference can run on raw graphs or on compressed GNN-graphs; both
/// produce identical logits (Theorem 2) — the CG path is the Fig. 10/12
/// acceleration.
class PairScorer {
 public:
  PairScorer(int32_t num_labels, const PairScorerOptions& options);

  PairScorer(const PairScorer&) = delete;
  PairScorer& operator=(const PairScorer&) = delete;

  /// Per-head logits, concatenated to a 1 x num_heads row.
  VarId ForwardCompressed(Tape* tape, const CompressedGnnGraph& g,
                          const CompressedGnnGraph& q,
                          const CompressedGnnGraph* context) const;
  VarId ForwardRaw(Tape* tape, const Graph& g, const Graph& q,
                   const Graph* context) const;

  /// Inference helper: sigmoid head probabilities on CGs.
  std::vector<float> PredictCompressed(const CompressedGnnGraph& g,
                                       const CompressedGnnGraph& q,
                                       const CompressedGnnGraph* context) const;
  /// Inference helper on raw graphs (the no-CG ablation).
  std::vector<float> PredictRaw(const Graph& g, const Graph& q,
                                const Graph* context) const;

  /// The context encoder's (query-independent) embedding of one graph —
  /// precomputable once after training, then passed to the
  /// *WithContextRow per-pair helpers or to InferHeads.
  Matrix ContextEmbedding(const CompressedGnnGraph& cg) const;
  Matrix ContextEmbedding(const Graph& g) const;

  /// Like PredictCompressed/PredictRaw but with the context embedding
  /// already computed (avoids re-encoding the routing node per neighbor).
  std::vector<float> PredictCompressedWithContextRow(
      const CompressedGnnGraph& g, const CompressedGnnGraph& q,
      const Matrix& context_row) const;
  std::vector<float> PredictRawWithContextRow(const Graph& g, const Graph& q,
                                              const Matrix& context_row) const;

  /// Per-query encoder cache for the batched inference paths below: built
  /// once per query, shared by every candidate batch scored against it.
  QueryEncodingCache EncodeQuery(const CompressedGnnGraph& q) const;
  QueryEncodingCache EncodeQuery(const Graph& q) const;

  /// Batched inference: out[i] == PredictCompressed(*gs[i], q, context),
  /// computed with one GEMM per GNN layer / head layer over the whole
  /// candidate set and no autograd bookkeeping. Equal to
  /// InferHeads(InferCross(gs, query), context's embedding).
  std::vector<std::vector<float>> PredictCompressedBatch(
      const std::vector<const CompressedGnnGraph*>& gs,
      const QueryEncodingCache& query,
      const CompressedGnnGraph* context) const;
  std::vector<std::vector<float>> PredictRawBatch(
      const std::vector<const Graph*>& gs, const QueryEncodingCache& query,
      const Graph* context) const;

  /// First half of batched inference: the cross-graph rows h_{G,Q}, one
  /// per candidate (|gs| x cross_dim). Row i depends only on (*gs[i], Q),
  /// never on which other candidates share the batch, so rows computed in
  /// different calls may be reused and mixed (the per-query memo of
  /// LearnedNeighborRanker relies on this).
  Matrix InferCross(const std::vector<const CompressedGnnGraph*>& gs,
                    const QueryEncodingCache& query) const;
  Matrix InferCross(const std::vector<const Graph*>& gs,
                    const QueryEncodingCache& query) const;

  /// Second half: appends the context row (empty span = none) to every
  /// cross row, runs all heads batched, and returns per-candidate sigmoid
  /// probabilities. Row i's probabilities depend only on cross row i and
  /// the context row.
  std::vector<std::vector<float>> InferHeads(
      const Matrix& cross, std::span<const float> context_row) const;

  ParamStore* params() { return &store_; }
  const ParamStore& params() const { return store_; }
  const PairScorerOptions& options() const { return options_; }
  int32_t num_labels() const { return num_labels_; }
  /// Width of one InferCross row.
  int32_t cross_dim() const { return cross_.cross_dim(); }

 private:
  VarId Heads(Tape* tape, VarId features) const;

  int32_t num_labels_;
  PairScorerOptions options_;
  ParamStore store_;
  CrossGraphEncoder cross_;
  GinEncoder context_gin_;
  std::vector<Mlp> heads_;
};

}  // namespace lan

#endif  // LAN_LAN_PAIR_SCORER_H_
