#ifndef LAN_PG_HNSW_H_
#define LAN_PG_HNSW_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ged/ged_computer.h"
#include "pg/beam_search.h"
#include "pg/distance.h"
#include "pg/proximity_graph.h"

namespace lan {

/// \brief HNSW construction/search parameters.
struct HnswOptions {
  /// Max neighbors per node in upper layers; base layer allows 2*M.
  int M = 8;
  /// Candidate-list width during construction.
  int ef_construction = 32;
  /// RNG seed for the level assignment.
  uint64_t seed = 42;
};

/// \brief Construction-form state of an HNSW index: the directed layered
/// adjacency the per-node insertion step mutates. The public view
/// (symmetrized base layer, sparse upper layers) is derived from it.
///
/// Exposed so the insertion machinery in hnsw.cc can operate on it and
/// the snapshot decoder can restore it (HnswIndex::FromCore).
struct HnswCore {
  /// adjacency[l][node] = directed neighbor list at layer l (layer 0 is
  /// the base layer before symmetrization).
  std::vector<std::vector<std::vector<GraphId>>> adjacency;
  std::vector<int> node_level;
  GraphId entry = kInvalidGraphId;
  GraphId num_nodes = 0;
};

/// \brief Hierarchical navigable small world index over a graph database
/// under GED (Malkov & Yashunin; the paper's main baseline).
///
/// The base layer doubles as the flat proximity graph that LAN routes on,
/// so every compared method shares the same PG topology. Construction
/// distances are computed with the provided GedComputer (typically in
/// approximate-only mode) and are an offline cost, not query NDC.
///
/// Batch Build is literally "insert N times", in id order, over the same
/// per-node insertion step that the public Insert uses, so an index grown
/// incrementally from a prefix behaves exactly like a batch build over
/// that prefix plus inserts. The topology is a pure function of the
/// distances and the options: no thread count or pool changes it.
class HnswIndex {
 public:
  /// Distance between two indexed items. It need not be symmetric: the
  /// insertion step memoizes each pair under the argument order it asks
  /// first. Must be thread-safe when a ThreadPool is passed to Build,
  /// BuildWithDistance or Insert.
  using PairDistanceFn = std::function<double(GraphId, GraphId)>;

  /// Builds the index by inserting ids 0..n-1 in order on the calling
  /// thread. `pool` (optional) only computes each insertion step's missing
  /// distances in parallel; the result is the same with or without it.
  static HnswIndex Build(const GraphDatabase& db, const GedComputer& ged,
                         const HnswOptions& options,
                         ThreadPool* pool = nullptr);

  /// Metric-agnostic builder (used by the L2route baseline over graph
  /// embedding vectors).
  static HnswIndex BuildWithDistance(GraphId num_nodes,
                                     const PairDistanceFn& distance,
                                     const HnswOptions& options,
                                     ThreadPool* pool = nullptr);

  /// The layer-0 proximity graph (all database nodes).
  const ProximityGraph& BaseLayer() const { return base_layer_; }

  GraphId NumNodes() const { return core_.num_nodes; }
  int NumLayers() const { return static_cast<int>(layers_.size()) + 1; }
  GraphId EntryPoint() const { return entry_point_; }

  /// HNSW_IS: greedy descent through the upper layers; returns the
  /// base-layer start node. Distance computations go through `oracle` and
  /// therefore count toward the query's NDC.
  GraphId SelectInitialNode(DistanceOracle* oracle) const;

  /// Upper-layer descent with an arbitrary query-to-item distance.
  GraphId SelectInitialNodeFn(
      const std::function<double(GraphId)>& distance) const;

  /// An index over a saved construction-form state (the snapshot codec's
  /// decoder), with the routing view derived as after every mutation.
  /// Returns a Status unless the core is well formed: at least one node
  /// and at most 64 layers, the entry point and every node level in range,
  /// one row per node in every layer, neighbor ids in range and no self
  /// loops.
  static Result<HnswIndex> FromCore(HnswCore core);

  /// Construction-form (directed) row of `id` at `layer` in [0,
  /// NumLayers()), for the snapshot codec.
  std::span<const GraphId> CoreRow(int layer, GraphId id) const {
    return core_.adjacency[static_cast<size_t>(layer)]
                          [static_cast<size_t>(id)];
  }
  int NodeLevel(GraphId id) const {
    return core_.node_level[static_cast<size_t>(id)];
  }

  /// Incrementally inserts item `id` (which must equal the current node
  /// count) into the index — dynamic maintenance without a rebuild.
  /// `distance` must cover all ids up to and including the new one.
  /// Runs the same per-node insertion step as batch construction (level
  /// assignment, ef-search, diversity heuristic and backfill), with the
  /// level drawn from `rng`. `pool` (optional) only computes the step's distances ahead, as in
  /// Build; the result is the same with or without it.
  Status Insert(GraphId id, const PairDistanceFn& distance,
                const HnswOptions& options, Rng* rng,
                ThreadPool* pool = nullptr);

  /// Advances `rng` past the level draws of `count` Inserts, so a caller
  /// restoring an index that already took `count` online inserts resumes
  /// the level stream exactly where the original left off.
  static void SkipInsertLevels(Rng* rng, const HnswOptions& options,
                               uint64_t count);

  /// Full HNSW k-ANN query: upper-layer descent, then Algorithm 1 on the
  /// base layer with beam size `ef`. `live` (optional) filters tombstoned
  /// ids out of the answers; dead nodes are still traversed.
  RoutingResult Search(DistanceOracle* oracle, int ef, int k,
                       const std::vector<uint8_t>* live = nullptr) const;

 private:
  /// Re-derives the public view (symmetrized base layer, CSR upper
  /// layers, entry point) from `core_`; called after every mutation.
  void RebuildViewFromCore();

  HnswCore core_;
  ProximityGraph base_layer_;
  /// Upper layer l (1-based in HNSW terms) at layers_[l - 1]: the core
  /// rows verbatim, empty for nodes below the layer.
  std::vector<ProximityGraph> layers_;
  GraphId entry_point_ = kInvalidGraphId;
};

}  // namespace lan

#endif  // LAN_PG_HNSW_H_
