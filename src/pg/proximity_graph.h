#ifndef LAN_PG_PROXIMITY_GRAPH_H_
#define LAN_PG_PROXIMITY_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/status.h"
#include "graph/graph.h"

namespace lan {

/// \brief The proximity-graph index structure: an undirected graph over
/// GraphIds of a database (Sec. III-B). HnswIndex builds it; routing
/// (beam_search, np_route) reads it.
///
/// One immutable CSR: the row of node i is neighbors[offsets[i] ..
/// offsets[i+1]), one contiguous array the search hot loops iterate
/// through NeighborSpan(), plus Prefetch hints for upcoming rows.
///
/// FromEdges is the public way to assemble one: it validates, symmetrizes
/// and sorts, so rows are ascending and every undirected edge appears in
/// both rows. HnswIndex also stores its directed per-layer rows (upper
/// layers) in this type; those rows keep construction
/// order, so only NeighborSpan/PrefetchNeighbors apply to them.
class ProximityGraph {
 public:
  /// The empty graph (zero nodes).
  ProximityGraph() = default;

  /// Undirected graph on ids [0, num_nodes) with the given edges. Each
  /// edge lands in both endpoint rows; rows come out sorted and free of
  /// duplicates, so repeated edges (in either direction) are idempotent.
  /// Rejects a self-loop (InvalidArgument) and an id outside the range
  /// (OutOfRange).
  static Result<ProximityGraph> FromEdges(
      GraphId num_nodes, std::span<const std::pair<GraphId, GraphId>> edges);

  GraphId NumNodes() const {
    return offsets_.empty() ? 0 : static_cast<GraphId>(offsets_.size() - 1);
  }

  /// Neighbor row of `id`, ascending for undirected graphs.
  std::span<const GraphId> NeighborSpan(GraphId id) const {
    const int64_t begin = offsets_[static_cast<size_t>(id)];
    const int64_t end = offsets_[static_cast<size_t>(id) + 1];
    return {neighbors_.data() + begin, static_cast<size_t>(end - begin)};
  }

  /// Hints the cache that `id`'s neighbor row is about to be scanned.
  void PrefetchNeighbors(GraphId id) const {
    const std::span<const GraphId> row = NeighborSpan(id);
    PrefetchReadRange(row.data(), row.size() * sizeof(GraphId));
  }

  int32_t Degree(GraphId id) const {
    return static_cast<int32_t>(NeighborSpan(id).size());
  }

  /// Undirected edge count (each edge fills two row slots).
  int64_t NumEdges() const {
    return static_cast<int64_t>(neighbors_.size()) / 2;
  }
  double AverageDegree() const {
    return NumNodes() == 0 ? 0.0
                           : static_cast<double>(neighbors_.size()) /
                                 static_cast<double>(NumNodes());
  }

  /// True if every node can reach node 0 (empty graphs are connected).
  bool IsConnected() const;

 private:
  friend class HnswIndex;

  ProximityGraph(std::vector<int64_t> offsets, std::vector<GraphId> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {}

  /// Owned CSR with `rows` taken verbatim (row order kept).
  static ProximityGraph FromRows(
      const std::vector<std::vector<GraphId>>& rows);

  /// Owned undirected CSR: `for_each_edge(emit)` calls emit(a, b) for
  /// every edge, in one or both directions and possibly repeated; ids must
  /// be in range and distinct. Degree count, fill both directions, then
  /// sort and de-duplicate each row in place.
  template <typename ForEachEdge>
  static ProximityGraph Symmetrize(GraphId num_nodes,
                                   const ForEachEdge& for_each_edge) {
    const size_t n = static_cast<size_t>(num_nodes);
    std::vector<int64_t> offsets(n + 1, 0);
    for_each_edge([&offsets](GraphId a, GraphId b) {
      LAN_DCHECK(a != b);
      ++offsets[static_cast<size_t>(a) + 1];
      ++offsets[static_cast<size_t>(b) + 1];
    });
    for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    std::vector<GraphId> neighbors(static_cast<size_t>(offsets[n]));
    std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for_each_edge([&neighbors, &cursor](GraphId a, GraphId b) {
      neighbors[static_cast<size_t>(cursor[static_cast<size_t>(a)]++)] = b;
      neighbors[static_cast<size_t>(cursor[static_cast<size_t>(b)]++)] = a;
    });
    // Rows shift left as duplicates drop out; row i is read at its filled
    // offsets before offsets[i] is overwritten with its final one.
    int64_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto begin = neighbors.begin() + offsets[i];
      const auto end = neighbors.begin() + offsets[i + 1];
      std::sort(begin, end);
      const auto last = std::unique(begin, end);
      offsets[i] = out;
      const auto dest = neighbors.begin() + out;
      if (dest != begin) std::copy(begin, last, dest);
      out += last - begin;
    }
    offsets[n] = out;
    neighbors.resize(static_cast<size_t>(out));
    return ProximityGraph(std::move(offsets), std::move(neighbors));
  }

  std::vector<int64_t> offsets_;  // [NumNodes() + 1], or empty
  std::vector<GraphId> neighbors_;
};

}  // namespace lan

#endif  // LAN_PG_PROXIMITY_GRAPH_H_
