#ifndef LAN_GRAPH_GRAPH_DATABASE_H_
#define LAN_GRAPH_GRAPH_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

/// \brief A collection of labeled graphs: the search universe `D`.
///
/// Graphs are addressed by dense GraphId. The database also records the
/// size of the shared node-label alphabet (labels in every member graph
/// must lie in [0, num_labels)).
///
/// Mutability model (the substrate of the epoch-versioned index): graphs
/// are append-only and immutable once added; Remove() tombstones an id
/// without reclaiming it, so removed graphs keep serving as navigation
/// waypoints and stay readable by searches pinned to an older epoch.
/// Concurrency contract: one writer thread may Add()/Remove() while any
/// number of reader threads call Get()/size() — readers are lock-free.
/// Graphs live in a deque (stable addresses) and Get() goes through an
/// immutable published pointer table that the writer republishes
/// (copy-on-grow) with release ordering. Each graph is stored with its
/// PreparedGraph, derived by Add() and as immutable as the graph.
/// Everything else (Truncate,
/// the statistics helpers, copies/moves) is setup-phase only and must not
/// run concurrently with anything.
class GraphDatabase {
 public:
  GraphDatabase() = default;
  explicit GraphDatabase(int32_t num_labels) : num_labels_(num_labels) {}

  GraphDatabase(const GraphDatabase& other);
  GraphDatabase& operator=(const GraphDatabase& other);
  GraphDatabase(GraphDatabase&& other) noexcept;
  GraphDatabase& operator=(GraphDatabase&& other) noexcept;

  /// InvalidArgument if `graph` has no nodes or a node label lies outside
  /// the alphabet [0, num_labels). The one validation for graphs entering
  /// the index: Add() applies it, and so does every search entry point, so
  /// an untrusted query fails with a Status instead of aborting the
  /// process.
  Status CheckGraph(const Graph& graph) const;

  /// Appends a graph; returns its id. Fails on a graph CheckGraph rejects.
  /// Safe against concurrent readers (single writer).
  Result<GraphId> Add(Graph graph);

  /// Tombstones `id`: the graph data is kept (it remains navigable and
  /// readable) but IsLive(id) turns false. Fails on out-of-range or
  /// already-removed ids. Safe against concurrent readers (single writer).
  Status Remove(GraphId id);

  /// True when `id` has not been removed. Writer-side / setup-phase view;
  /// concurrent searches carry their own epoch-pinned bitmap.
  bool IsLive(GraphId id) const {
    return live_[static_cast<size_t>(id)] != 0;
  }

  GraphId size() const {
    return size_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }
  /// Number of non-tombstoned graphs.
  GraphId NumLive() const { return size() - num_removed_; }
  /// Number of tombstoned graphs.
  GraphId NumRemoved() const { return num_removed_; }

  /// Lock-free: one acquire load of the published pointer table. Valid for
  /// any id the caller learned about through a properly published
  /// snapshot (or, trivially, in single-threaded use).
  const Graph& Get(GraphId id) const {
    return slots_.load(std::memory_order_acquire)[static_cast<size_t>(id)]
        ->graph;
  }

  /// The prepared form of graph `id` (same access rules as Get()).
  const PreparedGraph& Prepared(GraphId id) const {
    return slots_.load(std::memory_order_acquire)[static_cast<size_t>(id)]
        ->prepared;
  }

  int32_t num_labels() const { return num_labels_; }
  void set_num_labels(int32_t n) { num_labels_ = n; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Mean node count over all member graphs (0 when empty).
  double AverageNodes() const;
  /// Mean edge count over all member graphs (0 when empty).
  double AverageEdges() const;
  /// Number of distinct node labels actually used.
  int32_t DistinctLabelsUsed() const;

  /// Keeps only the first `count` graphs (used by the Fig. 9 scalability
  /// sweep). Fails if count exceeds the current size. Setup-phase only.
  Status Truncate(GraphId count);

 private:
  /// Publishes a pointer table covering every graph; grows the slot array
  /// geometrically, retiring (but keeping alive) old arrays so in-flight
  /// readers of a previous table stay valid.
  void RepublishSlots();

  struct Entry {
    Graph graph;
    PreparedGraph prepared;
  };

  std::deque<Entry> graphs_;
  std::vector<uint8_t> live_;
  GraphId num_removed_ = 0;
  int32_t num_labels_ = 0;
  std::string name_;

  /// Published view: slots_[i] points at entry i (a deque element).
  /// Readers take one acquire load; the writer fills the next slot, then
  /// publishes the new size (and, on growth, a fresh array) with release
  /// ordering.
  std::atomic<const Entry* const*> slots_{nullptr};
  std::atomic<GraphId> size_{0};
  size_t slot_capacity_ = 0;
  /// Every slot array ever published (at most O(log size) of them).
  std::vector<std::unique_ptr<const Entry*[]>> slot_arrays_;
};

}  // namespace lan

#endif  // LAN_GRAPH_GRAPH_DATABASE_H_
