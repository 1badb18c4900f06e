#ifndef LAN_GNN_CROSS_GRAPH_H_
#define LAN_GNN_CROSS_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph.h"
#include "nn/autograd.h"

namespace lan {

class ThreadPool;

/// \brief Theorem 3 cost model of one cross-graph forward pass:
/// node terms (the W multiplications), edge terms (aggregation), and
/// attention pair terms (the dominating product of per-level sizes).
struct CrossGraphComplexity {
  int64_t node_terms = 0;
  int64_t edge_terms = 0;
  int64_t attention_pairs = 0;

  int64_t Total() const { return node_terms + edge_terms + attention_pairs; }
};

/// Theorem 3 counts for the raw computation (Definition 1) of L layers.
CrossGraphComplexity ComputeCrossComplexity(const Graph& g, const Graph& q,
                                            int num_layers);
/// Theorem 3 counts for the compressed computation (Definition 3).
CrossGraphComplexity ComputeCrossComplexity(const CompressedGnnGraph& g,
                                            const CompressedGnnGraph& q);

/// \brief Per-query state reused by every batched inference call that
/// scores candidates against the same query: one-hot rows, aggregation /
/// lift operators, attention log-multiplicities, and readout weights.
/// Built once per query by CrossGraphEncoder::EncodeQuery (the per-pair
/// paths recompute all of this for every scored pair). It depends only on
/// the query, the layer count and the input dim, so every model with the
/// same two can share it.
struct QueryEncodingCache {
  bool compressed = false;
  int num_layers = 0;
  /// rows_per_level[l] = query rows (groups or nodes) at level l = 0..L.
  std::vector<int32_t> rows_per_level;
  /// Level-0 labels of the query rows, and their one-hot features
  /// (rows_per_level[0] x input_dim).
  std::vector<int32_t> level0_labels;
  Matrix one_hot;
  /// Aggregation operator used at layer l (raw graphs repeat the same
  /// GnnGraph operator at every layer).
  std::vector<SparseMatrix> aggregation;
  /// CG only: lift operator from level l rows to level l+1 rows.
  std::vector<SparseMatrix> lift;
  /// CG only: log group multiplicities log|q_{l,j}| per level l = 0..L-1
  /// (the Definition 3 softmax log-weights of the attended groups).
  std::vector<std::vector<float>> log_multiplicity;
  /// Readout weights at level L (CG: group sizes; raw: all ones).
  std::vector<float> readout_weights;
};

class CrossGraphEncoder;

/// \brief A query's CG and encoder cache, each built by its first use.
///
/// The learned components read the query CG only when a model actually
/// runs, so a query that runs none (baseline routing from HNSW_IS, or
/// LAN_Route that never enters N_Q) never builds it. The encoder cache
/// depends only on the query, the layer count and the input dim, so M_nh
/// and M_rk share one per query. One instance per query; not thread-safe.
class LazyQueryCg {
 public:
  LazyQueryCg(const Graph* query, int num_layers)
      : query_(query), num_layers_(num_layers) {}

  const CompressedGnnGraph& Get() {
    if (!built_) {
      cg_ = BuildCompressedGnnGraph(*query_, num_layers_);
      built_ = true;
    }
    return cg_;
  }

  /// The encoder cache of the CG (`compressed`) or of the raw query,
  /// built by `encoder` on the first call. Every later call must ask for
  /// the same kind from an encoder of the same layer count and input dim.
  const QueryEncodingCache& Encoding(const CrossGraphEncoder& encoder,
                                     bool compressed);

 private:
  const Graph* query_;
  int num_layers_;
  bool built_ = false;
  CompressedGnnGraph cg_;
  bool encoded_ = false;
  QueryEncodingCache encoding_;
};

/// \brief Cross-graph (GMN-style) encoder: Definition 1 on raw graphs and
/// Definition 3 on compressed GNN-graphs.
///
/// Per layer l:
///   h_u^l = ReLU(W^l (h_u^{l-1} + sum_{u' in N(u)} h_{u'}^{l-1} + mu_u))
///   mu_u  = sum_{v in Q} alpha_{u,v} h_v^{l-1}
///   alpha = softmax_v( a1 . h_u^{l-1} + a2 . h_v^{l-1} )
/// applied symmetrically to both graphs (shared weights), followed by mean
/// readout and concatenation: h_{G,Q} = h_G || h_Q (1 x 2 d_L).
///
/// On CGs the attention runs over level-(l-1) groups with multiplicity
/// weights folded into the softmax logits (Definition 3); per Theorem 2
/// the result is exactly equal to the raw computation. Two deviations
/// from the paper-as-printed, both needed for that equality to hold (see
/// DESIGN.md): attention logits use the previous-level group embedding
/// (not the aggregate t_g), and the attended groups are level l-1 (not l).
class CrossGraphEncoder {
 public:
  CrossGraphEncoder() = default;
  CrossGraphEncoder(int32_t input_dim, std::vector<int32_t> layer_dims,
                    ParamStore* store, Rng* rng);

  /// Definition 1; result is 1 x (2 * output_dim()).
  VarId Forward(Tape* tape, const Graph& g, const Graph& q) const;

  /// Definition 3; equal to Forward on the underlying graphs (Theorem 2).
  VarId ForwardCompressed(Tape* tape, const CompressedGnnGraph& g,
                          const CompressedGnnGraph& q) const;

  /// Ablation used by the Fig. 12 HAG comparison: Definition 1 where the
  /// neighborhood aggregation reuses a HAG-style precomputed plan (passed
  /// as the aggregation operators) while attention stays per-node. The
  /// default Forward() is recovered with the GnnGraph operators.
  VarId ForwardWithAggregators(Tape* tape, const Graph& g,
                               const SparseMatrix& agg_g, const Graph& q,
                               const SparseMatrix& agg_q) const;

  /// Builds the per-query cache for the batched inference paths below.
  QueryEncodingCache EncodeQuery(const CompressedGnnGraph& q) const;
  QueryEncodingCache EncodeQuery(const Graph& q) const;

  /// Inference-only batched forward (no tape): row i equals the value of
  /// ForwardCompressed(tape, *gs[i], q), but the attention score, linear
  /// projection, and readout of each layer run over the stacked candidate
  /// set (one GEMM per layer instead of one per pair); only the
  /// block-diagonal attention softmax stays per-pair, with one softmax and
  /// message row per distinct self score. Writes |gs| x cross_dim() into
  /// `out`, reusing its storage. Batches of more than four candidates run
  /// in ceil(|gs| / 4) chunks of balanced size, concurrently on `pool` when
  /// one is given; the rows are the same bits either way. Working storage
  /// is per thread, so a warm thread allocates nothing.
  void InferCrossEmbeddings(const std::vector<const CompressedGnnGraph*>& gs,
                            const QueryEncodingCache& query, Matrix* out,
                            ThreadPool* pool = nullptr) const;
  /// Raw (Definition 1) batched inference; row i matches Forward().
  void InferCrossEmbeddings(const std::vector<const Graph*>& gs,
                            const QueryEncodingCache& query, Matrix* out,
                            ThreadPool* pool = nullptr) const;

  int num_layers() const { return static_cast<int>(weights_.size()); }
  int32_t input_dim() const { return input_dim_; }
  int32_t output_dim() const {
    return layer_dims_.empty() ? input_dim_ : layer_dims_.back();
  }
  /// Dimension of the cross embedding h_G || h_Q.
  int32_t cross_dim() const { return 2 * output_dim(); }

 private:
  /// All chunks of one batched inference call into `out`.
  template <typename G>
  void InferInChunks(const std::vector<const G*>& gs,
                     const QueryEncodingCache& query, Matrix* out,
                     ThreadPool* pool) const;
  /// One chunk: the stacked forward of candidates `gs`, whose rows go to
  /// `out` (|gs| x cross_dim(), zero-initialized by the caller).
  template <typename G>
  void InferStacked(std::span<const G* const> gs,
                    const QueryEncodingCache& query, float* out) const;

  /// One side of one layer: aggregation + attention + linear + ReLU.
  VarId LayerOneSide(Tape* tape, VarId h_self, VarId h_other,
                     const SparseMatrix& agg, int layer,
                     const std::vector<float>* other_weights,
                     const SparseMatrix* lift_self) const;

  Matrix OneHot(const Graph& g) const;
  Matrix OneHot(const CompressedGnnGraph& cg) const;

  int32_t input_dim_ = 0;
  std::vector<int32_t> layer_dims_;
  std::vector<ParamState*> weights_;  // W^l
  std::vector<ParamState*> attn_self_;   // a1 per layer (d_{l-1} x 1)
  std::vector<ParamState*> attn_other_;  // a2 per layer (d_{l-1} x 1)
};

}  // namespace lan

#endif  // LAN_GNN_CROSS_GRAPH_H_
