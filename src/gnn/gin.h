#ifndef LAN_GNN_GIN_H_
#define LAN_GNN_GIN_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gnn/compressed_gnn_graph.h"
#include "graph/graph.h"
#include "nn/autograd.h"

namespace lan {

/// \brief GIN encoder (Sec. III-C, Eq. 1): L graph-convolution layers
///   h_u^l = ReLU(W^l (h_u^{l-1} + sum_{v in N(u)} h_v^{l-1}))
/// with one-hot label input features and mean readout.
///
/// The same trained weights can be evaluated on a plain graph or on its
/// compressed GNN-graph; the two are equal by GIN/WL equivalence.
class GinEncoder {
 public:
  GinEncoder() = default;
  /// `input_dim` = label alphabet size; `layer_dims` = output dim of each
  /// of the L layers (L >= 1).
  GinEncoder(int32_t input_dim, std::vector<int32_t> layer_dims,
             ParamStore* store, Rng* rng);

  /// One-hot (n x input_dim) features of a graph.
  Matrix InitialFeatures(const Graph& g) const;
  /// One-hot (#groups x input_dim) features of a CG's level-0 groups.
  Matrix InitialFeatures(const CompressedGnnGraph& cg) const;

  /// Node embeddings after the last layer (n x d_L).
  VarId ForwardNodes(Tape* tape, const Graph& g) const;
  /// Graph embedding: mean of final node embeddings (1 x d_L).
  VarId ForwardGraph(Tape* tape, const Graph& g) const;
  /// Graph embedding computed on the compressed GNN-graph (1 x d_L);
  /// equals ForwardGraph on the underlying graph.
  VarId ForwardGraphCompressed(Tape* tape, const CompressedGnnGraph& cg) const;

  /// Inference-only graph embedding on the CG (no tape); matches
  /// ForwardGraphCompressed bit for bit.
  Matrix InferGraphEmbeddingCompressed(const CompressedGnnGraph& cg) const;

  int num_layers() const { return static_cast<int>(weights_.size()); }
  int32_t input_dim() const { return input_dim_; }
  int32_t output_dim() const { return layer_dims_.empty() ? input_dim_ : layer_dims_.back(); }
  const std::vector<ParamState*>& weights() const { return weights_; }

 private:
  int32_t input_dim_ = 0;
  std::vector<int32_t> layer_dims_;
  std::vector<ParamState*> weights_;
};

}  // namespace lan

#endif  // LAN_GNN_GIN_H_
