#ifndef LAN_GNN_GNN_GRAPH_H_
#define LAN_GNN_GNN_GRAPH_H_

#include <cstdint>

#include "common/random.h"
#include "graph/graph.h"
#include "nn/matrix.h"

namespace lan {

/// \brief The (uncompressed) GNN-graph H_{G,L} of Sec. III-D: an
/// (L+1)-level DAG whose level-l nodes are the embeddings h_u^l and whose
/// edges carry values from level l-1 to level l ((v -> u) for every graph
/// edge (u, v), plus a self edge per node).
///
/// Every level replicates V(G), so the structure is fully determined by
/// the underlying graph plus L; this wrapper only adds counting and the
/// dense aggregation operator used by the plain GIN / cross-graph forward
/// passes.
class GnnGraph {
 public:
  GnnGraph(const Graph& graph, int num_layers)
      : graph_(&graph), num_layers_(num_layers) {}

  const Graph& graph() const { return *graph_; }
  int num_layers() const { return num_layers_; }

  /// Total nodes across all L+1 levels.
  int64_t NumNodes() const {
    return static_cast<int64_t>(num_layers_ + 1) * graph_->NumNodes();
  }
  /// Total directed edges across the L level transitions (2 per undirected
  /// graph edge + 1 self edge per node, per transition).
  int64_t NumEdges() const {
    return static_cast<int64_t>(num_layers_) *
           (2 * graph_->NumEdges() + graph_->NumNodes());
  }

  /// The n x n "self + neighbor sum" operator S with S h = h_u + sum_{v in
  /// N(u)} h_v (the GIN aggregation of Eq. 1, identical at every level).
  SparseMatrix AggregationOperator() const;

  /// out += S x over row-offset blocks of row-major buffers (`cols` wide):
  /// out row u + dst_off gains x rows u + src_off and v + src_off for each
  /// neighbor v, one entry at a time in AggregationOperator's order, so
  /// the sums match applying the materialized operator bit for bit.
  void ApplyAggregation(const float* x, int32_t cols, int32_t src_off,
                        float* out, int32_t dst_off) const;
  /// ApplyAggregation on one-hot rows given by their labels (row r is 1 at
  /// column labels[r]): every other column is an exact zero whose product
  /// adds nothing to a destination entry that is never -0, so only the
  /// label column moves.
  void ApplyAggregationOneHot(const int32_t* labels, int32_t cols,
                              int32_t src_off, float* out,
                              int32_t dst_off) const;

 private:
  const Graph* graph_;
  int num_layers_;
};

/// \brief Sampled aggregation operator in the GraphSAGE / FastGCN family
/// (the paper's Sec. II-C): each node aggregates itself plus at most
/// `sample_size` uniformly sampled neighbors, with the classic 1/p
/// importance reweighting. Fast — but unlike the compressed GNN-graph it
/// does NOT preserve the learned function's output, which is exactly the
/// contrast Sec. II-C draws (see gnn_test and fig12 for the demonstration).
SparseMatrix SampledAggregationOperator(const Graph& g, int sample_size,
                                        Rng* rng);

}  // namespace lan

#endif  // LAN_GNN_GNN_GRAPH_H_
