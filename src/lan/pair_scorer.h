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
  uint64_t seed = 7;
};

/// \brief Cross-graph-embedding classifier shared by the neighbor ranking
/// model (Sec. IV-C) and the neighborhood prediction model (Sec. V-B).
///
/// Per pair (G, Q): logits_i = MLP_i( h_{G,Q} [|| h_ctx] ), where h_{G,Q}
/// is the cross-graph embedding (Definition 1 / Definition 3) and h_ctx an
/// optional GIN embedding of a context graph (the routing node for M_rk).
///
/// Training runs the taped Forward* per pair. Query-time inference is
/// batched and split in two: EncodeQuery + InferCross produce the cross
/// rows h_{G,Q} of many candidates, and InferHeads turns them into head
/// probabilities. Both halves run on raw graphs or on compressed
/// GNN-graphs with equal results (Theorem 2); the CG path is the
/// Fig. 10/12 acceleration and the raw one its ablation.
class PairScorer {
 public:
  /// `num_heads` binary heads (M_rk uses 100/y - 1, M_nh 1); with
  /// `context`, a context graph's GIN embedding is concatenated to the
  /// cross embedding (the M_rk design of Sec. IV-C1).
  PairScorer(int32_t num_labels, const PairScorerOptions& options,
             int num_heads, bool context);

  PairScorer(const PairScorer&) = delete;
  PairScorer& operator=(const PairScorer&) = delete;

  /// Per-head logits, concatenated to a 1 x num_heads row: the training
  /// forward, and the reference every batched path is tested against.
  VarId ForwardCompressed(Tape* tape, const CompressedGnnGraph& g,
                          const CompressedGnnGraph& q,
                          const CompressedGnnGraph* context) const;
  VarId ForwardRaw(Tape* tape, const Graph& g, const Graph& q,
                   const Graph* context) const;

  /// The context encoder's (query-independent) 1 x d embedding of one
  /// graph: the context row InferHeads takes, precomputable once after
  /// training.
  Matrix ContextEmbedding(const CompressedGnnGraph& cg) const;

  /// Per-query encoder cache, built once per query and shared by every
  /// candidate batch scored against it.
  QueryEncodingCache EncodeQuery(const CompressedGnnGraph& q) const;
  QueryEncodingCache EncodeQuery(const Graph& q) const;
  /// The search's shared encoder cache of its query (of the CG when
  /// `compressed`), built on the first call by any model.
  const QueryEncodingCache& EncodeQuery(LazyQueryCg* query,
                                        bool compressed) const {
    return query->Encoding(cross_, compressed);
  }

  /// First half of batched inference: the cross-graph rows h_{G,Q}, one
  /// per candidate (|gs| x cross_dim), with one GEMM per GNN layer over the
  /// whole candidate set and no autograd bookkeeping. Row i depends only
  /// on (*gs[i], Q), never on which other candidates share the batch, so
  /// rows computed in different calls may be reused and mixed (the
  /// per-query memo of LearnedNeighborRanker relies on this). With a
  /// `pool`, the candidate chunks run concurrently on it. Writes into
  /// `out`, reusing its storage; a warm thread allocates nothing.
  void InferCross(const std::vector<const CompressedGnnGraph*>& gs,
                  const QueryEncodingCache& query, Matrix* out,
                  ThreadPool* pool = nullptr) const;
  void InferCross(const std::vector<const Graph*>& gs,
                  const QueryEncodingCache& query, Matrix* out,
                  ThreadPool* pool = nullptr) const;

  /// Second half: appends the context row (empty span = none) to every
  /// cross row, runs each head as one product per layer over all rows,
  /// and writes per-candidate sigmoid probabilities to `probs`
  /// (|rows| x num_heads, row-major), reusing its storage. Row i's
  /// probabilities depend only on cross row i and the context row. Working
  /// storage is per thread, so a warm thread allocates nothing.
  void InferHeads(const Matrix& cross, std::span<const float> context_row,
                  std::vector<float>* probs) const;

  ParamStore* params() { return &store_; }
  const ParamStore& params() const { return store_; }
  const PairScorerOptions& options() const { return options_; }
  int32_t num_labels() const { return num_labels_; }
  int num_heads() const { return static_cast<int>(heads_.size()); }
  bool has_context() const { return context_; }
  /// Width of one InferCross row.
  int32_t cross_dim() const { return cross_.cross_dim(); }
  /// Width of the context row InferHeads takes (0 without a context).
  int32_t context_dim() const {
    return context_ ? context_gin_.output_dim() : 0;
  }

 private:
  VarId Heads(Tape* tape, VarId features) const;

  int32_t num_labels_;
  PairScorerOptions options_;
  bool context_;
  ParamStore store_;
  CrossGraphEncoder cross_;
  GinEncoder context_gin_;
  std::vector<Mlp> heads_;
};

}  // namespace lan

#endif  // LAN_LAN_PAIR_SCORER_H_
