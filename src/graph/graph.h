#ifndef LAN_GRAPH_GRAPH_H_
#define LAN_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace lan {

/// Node index within a single graph.
using NodeId = int32_t;
/// Node label (an id into a dataset-level label alphabet).
using Label = int32_t;
/// Index of a graph within a GraphDatabase.
using GraphId = int32_t;

constexpr GraphId kInvalidGraphId = -1;

/// \brief An undirected node-labeled graph (the paper's data model,
/// Sec. III).
///
/// Nodes are dense indices [0, NumNodes()). Parallel edges and self-loops
/// are rejected. Storage is one CSR: node labels, row offsets (`NumNodes()
/// + 1` entries starting at 0) and the concatenated neighbor rows, each
/// row kept sorted so neighbor iteration is deterministic and every
/// undirected edge fills one slot in both endpoint rows. This is also the
/// per-graph layout of the snapshot's graphs section. The mutators edit
/// the CSR in place; they shift the arrays, which is cheap for the small
/// graphs of a graph database.
class Graph {
 public:
  Graph() = default;

  /// A graph over the given CSR arrays. Fails unless `row_offsets` has
  /// `labels.size() + 1` entries starting at 0 and ending at
  /// `neighbors.size()`, every row is strictly ascending, in range and
  /// free of self-loops, and the adjacency is symmetric.
  static Result<Graph> FromCsr(std::vector<Label> labels,
                               std::vector<int32_t> row_offsets,
                               std::vector<NodeId> neighbors);

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(Label label);

  /// Adds an undirected edge {u, v}.
  /// Fails on out-of-range endpoints, self-loops, and duplicates.
  Status AddEdge(NodeId u, NodeId v);

  /// True if the undirected edge {u, v} exists.
  bool HasEdge(NodeId u, NodeId v) const;

  int32_t NumNodes() const { return static_cast<int32_t>(labels_.size()); }
  int64_t NumEdges() const {
    return static_cast<int64_t>(neighbors_.size()) / 2;
  }

  Label label(NodeId v) const { return labels_[static_cast<size_t>(v)]; }
  void set_label(NodeId v, Label label) {
    labels_[static_cast<size_t>(v)] = label;
  }

  /// Sorted neighbor list of v.
  std::span<const NodeId> Neighbors(NodeId v) const {
    const int32_t begin = row_offsets_[static_cast<size_t>(v)];
    const int32_t end = row_offsets_[static_cast<size_t>(v) + 1];
    return {neighbors_.data() + begin, static_cast<size_t>(end - begin)};
  }

  int32_t Degree(NodeId v) const {
    return row_offsets_[static_cast<size_t>(v) + 1] -
           row_offsets_[static_cast<size_t>(v)];
  }

  std::span<const Label> labels() const { return labels_; }
  /// The CSR row offsets: `NumNodes() + 1` entries, or none for a graph
  /// that never had a node.
  std::span<const int32_t> row_offsets() const { return row_offsets_; }
  /// Every neighbor row, concatenated in node order.
  std::span<const NodeId> neighbors() const { return neighbors_; }

  /// All edges as (u, v) with u < v, sorted lexicographically.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// Largest label id present plus one (0 for an empty graph).
  Label MaxLabelPlusOne() const;

  /// Histogram over labels: label -> multiplicity.
  std::unordered_map<Label, int32_t> LabelHistogram() const;

  /// True if the graph is connected (vacuously true when empty).
  bool IsConnected() const;

  /// Removes the undirected edge {u, v}; fails if absent.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Removes node v (and incident edges), renumbering the last node to v.
  /// Fails if v is out of range.
  Status RemoveNode(NodeId v);

  /// Structural + label equality under the identity node mapping.
  bool operator==(const Graph& other) const;

  /// Canonical 64-bit content hash: FNV-1a over the node labels (in node
  /// order) and the sorted edge set. Equal graphs (operator==) hash equal,
  /// and the value is stable across processes and platforms, so it can
  /// key cross-query caches and persisted artifacts. Not
  /// isomorphism-invariant: the same structure under a different node
  /// numbering hashes differently (repeated queries are typically
  /// byte-identical, which is the case the hash exists for).
  uint64_t ContentHash() const;

  /// Compact one-line description for logs: "Graph(n=5, m=6)".
  std::string ToString() const;

 private:
  bool ValidNode(NodeId v) const { return v >= 0 && v < NumNodes(); }
  /// Puts `v` into u's row at its sorted position (absent before).
  void InsertNeighbor(NodeId u, NodeId v);
  /// Takes `v` out of u's row (present before).
  void EraseNeighbor(NodeId u, NodeId v);

  std::vector<Label> labels_;
  std::vector<int32_t> row_offsets_;
  std::vector<NodeId> neighbors_;
};

}  // namespace lan

#endif  // LAN_GRAPH_GRAPH_H_
