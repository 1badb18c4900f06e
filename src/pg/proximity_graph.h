#ifndef LAN_PG_PROXIMITY_GRAPH_H_
#define LAN_PG_PROXIMITY_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/prefetch.h"
#include "common/status.h"
#include "graph/graph.h"

namespace lan {

/// \brief The proximity-graph index structure: an undirected graph over
/// GraphIds of a database (Sec. III-B). Construction lives in
/// NswBuilder / HnswIndex; routing in beam_search / np_route.
///
/// Two adjacency forms coexist. The nested `vector<vector<GraphId>>` is
/// the authoritative, mutable construction form (AddEdge). Compact()
/// additionally derives a contiguous CSR copy (`flat_offsets_` +
/// `flat_neighbors_`) that the search hot loops iterate through
/// NeighborSpan(): one cache-friendly row per node instead of one heap
/// allocation per node, plus Prefetch* hints for upcoming rows.
/// Publish-time code (HnswIndex::RebuildViewFromCore) compacts; a later
/// AddEdge invalidates the CSR copy and NeighborSpan falls back to the
/// nested form, so the two views can never disagree.
///
/// A third, immutable form exists for snapshot loading: AttachFlatView
/// points the graph at an externally owned CSR (typically a mapped
/// snapshot section) without copying it. A view-backed graph rejects
/// AddEdge; the caller must keep the backing memory alive for the
/// graph's lifetime (LanIndex threads the mapping through
/// IndexSnapshot::backing).
class ProximityGraph {
 public:
  ProximityGraph() = default;
  explicit ProximityGraph(GraphId num_nodes)
      : adjacency_(static_cast<size_t>(num_nodes)) {}

  GraphId NumNodes() const {
    return is_view() ? view_num_nodes_
                     : static_cast<GraphId>(adjacency_.size());
  }

  /// Adds the undirected edge {a, b} if absent; self-loops rejected.
  /// Invalidates a previously Compact()ed flat view. Fails on a
  /// view-backed graph (FailedPrecondition) — thaw/rebuild first.
  Status AddEdge(GraphId a, GraphId b);

  bool HasEdge(GraphId a, GraphId b) const;

  /// Sorted neighbor list (construction form; invalid in view mode —
  /// use NeighborSpan, which covers every mode).
  const std::vector<GraphId>& Neighbors(GraphId id) const {
    return adjacency_[static_cast<size_t>(id)];
  }

  /// Search-time neighbor view: the attached/owned CSR row when present,
  /// the nested list otherwise. Same ids in the same order either way, so
  /// routing results are bitwise independent of which form backs the span.
  std::span<const GraphId> NeighborSpan(GraphId id) const {
    if (is_view()) {
      const int64_t begin = view_offsets_[static_cast<size_t>(id)];
      const int64_t end = view_offsets_[static_cast<size_t>(id) + 1];
      return {view_neighbors_ + begin, static_cast<size_t>(end - begin)};
    }
    if (!flat_offsets_.empty()) {
      const auto begin = flat_offsets_[static_cast<size_t>(id)];
      const auto end = flat_offsets_[static_cast<size_t>(id) + 1];
      return {flat_neighbors_.data() + begin,
              static_cast<size_t>(end - begin)};
    }
    const auto& nested = adjacency_[static_cast<size_t>(id)];
    return {nested.data(), nested.size()};
  }

  /// Derives the contiguous CSR view from the nested adjacency. Idempotent;
  /// called once per epoch publish, after construction settles. No-op on a
  /// view-backed graph (the attached CSR is already contiguous).
  void Compact();

  /// True while a valid CSR view backs NeighborSpan().
  bool compacted() const { return is_view() || !flat_offsets_.empty(); }

  /// Points the graph at an externally owned CSR adjacency without
  /// copying: row of node i is neighbors[offsets[i] .. offsets[i+1]),
  /// rows sorted ascending, both directions of every undirected edge
  /// present (offsets[num_nodes] counts each edge twice). Replaces any
  /// owned adjacency; zero allocations. The arrays must outlive the
  /// graph and every copy of it.
  void AttachFlatView(GraphId num_nodes, const int64_t* offsets,
                      const GraphId* neighbors);

  /// True when AttachFlatView backs the adjacency (immutable mode).
  bool is_view() const { return view_offsets_ != nullptr; }

  /// Hints the cache that `id`'s neighbor row is about to be scanned.
  /// No-op unless compacted (nested rows are scattered heap allocations
  /// whose base pointer is itself a dependent load).
  void PrefetchNeighbors(GraphId id) const {
    if (is_view()) {
      const int64_t begin = view_offsets_[static_cast<size_t>(id)];
      const int64_t end = view_offsets_[static_cast<size_t>(id) + 1];
      PrefetchReadRange(view_neighbors_ + begin,
                        static_cast<size_t>(end - begin) * sizeof(GraphId));
      return;
    }
    if (flat_offsets_.empty()) return;
    const auto begin = flat_offsets_[static_cast<size_t>(id)];
    const auto end = flat_offsets_[static_cast<size_t>(id) + 1];
    PrefetchReadRange(flat_neighbors_.data() + begin,
                      static_cast<size_t>(end - begin) * sizeof(GraphId));
  }

  int32_t Degree(GraphId id) const {
    return static_cast<int32_t>(NeighborSpan(id).size());
  }

  int64_t NumEdges() const { return num_edges_; }
  double AverageDegree() const {
    return NumNodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges_) /
                     static_cast<double>(NumNodes());
  }

  /// True if every node can reach node 0 (empty graphs are connected).
  bool IsConnected() const;

  /// Graphviz DOT rendering of the index topology (debug/visualization).
  std::string ToDot(const std::string& name = "PG") const;

 private:
  /// Drops the CSR view (NeighborSpan falls back to the nested form);
  /// AddEdge calls it before the nested form diverges. No-op on a
  /// view-backed graph, which has no nested fallback.
  void ClearFlatView();

  std::vector<std::vector<GraphId>> adjacency_;
  int64_t num_edges_ = 0;
  /// CSR view: row of node i is flat_neighbors_[flat_offsets_[i] ..
  /// flat_offsets_[i+1]). Empty offsets == not compacted.
  std::vector<int64_t> flat_offsets_;
  std::vector<GraphId> flat_neighbors_;
  /// External CSR view (AttachFlatView): not owned; null == not attached.
  GraphId view_num_nodes_ = 0;
  const int64_t* view_offsets_ = nullptr;
  const GraphId* view_neighbors_ = nullptr;
};

}  // namespace lan

#endif  // LAN_PG_PROXIMITY_GRAPH_H_
