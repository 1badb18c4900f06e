#ifndef LAN_GNN_COMPRESSED_GNN_GRAPH_H_
#define LAN_GNN_COMPRESSED_GNN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "nn/matrix.h"

namespace lan {

/// \brief The compressed GNN-graph H*_{G,L} of Definition 2, built by
/// Algorithm 5: per level, nodes with identical Weisfeiler–Lehman labels
/// (hence identical embeddings, GIN equivalence) collapse into one group;
/// edges carry multiplicity weights.
///
/// A pure function of the graph and L: never persisted, always built by
/// BuildCompressedGnnGraph (at Build, Insert and OpenSnapshot alike).
/// `node_group`/`parent` are builder/diagnostic state, not required by
/// inference.
struct CompressedGnnGraph {
  /// L (number of graph-convolution layers). Levels are 0..L.
  int num_layers = 0;

  /// node_group[l][v] = group index of graph node v at level l.
  std::vector<std::vector<int32_t>> node_group;

  /// group_size[l][i] = |g_{l,i}| (number of graph nodes in the group).
  std::vector<std::vector<int32_t>> group_size;

  /// Raw node label of (any representative of) each level-0 group; level-0
  /// group embeddings are the one-hot encodings of these labels.
  std::vector<Label> level0_group_labels;

  /// aggregation[l-1] (for l = 1..L) is the weighted operator from level
  /// l-1 groups to level l groups: rows = |groups at l|, cols = |groups at
  /// l-1|, weight w(g_{l-1,i}, g_{l,j}) per Algorithm 5 (shared neighbor
  /// count, +1 if the representative also lies in the source group).
  std::vector<SparseMatrix> aggregation;

  /// parent[l-1][j] (for l = 1..L) = the level-(l-1) group containing the
  /// members of level-l group j. Well defined because WL refinement only
  /// splits groups.
  std::vector<std::vector<int32_t>> parent;

  /// lift[l-1] (for l = 1..L): sparse 0/1 operator from level l-1 groups
  /// to level l groups (precomputed from `parent`).
  std::vector<SparseMatrix> lift;

  /// Sparse 0/1 lift operator from level l-1 groups to level l groups.
  const SparseMatrix& LiftOperator(int level) const;

  int32_t NumGroups(int level) const {
    return static_cast<int32_t>(group_size[static_cast<size_t>(level)].size());
  }

  /// Total nodes |V(H*)| across levels.
  int64_t NumNodes() const;
  /// Total weighted edges |E(H*)| (entry count, not weight sum).
  int64_t NumEdges() const;

  /// Group sizes at the top level as floats (the readout weights of
  /// Definition 3).
  std::vector<float> TopLevelWeights() const;

  /// Constants of batched inference, derived from `group_size` by
  /// BuildCompressedGnnGraph: log_group_size[l][i] = log|g_{l,i}|
  /// for l = 0..L-1 (the softmax log-weights of the attended groups) and
  /// readout_weights = TopLevelWeights().
  std::vector<std::vector<float>> log_group_size;
  std::vector<float> readout_weights;
};

/// Algorithm 5. `num_layers` >= 0; the graph must be non-empty.
CompressedGnnGraph BuildCompressedGnnGraph(const Graph& g, int num_layers);

}  // namespace lan

#endif  // LAN_GNN_COMPRESSED_GNN_GRAPH_H_
