#ifndef LAN_GED_GED_SCRATCH_H_
#define LAN_GED_GED_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "ged/assignment.h"
#include "ged/ged_bipartite.h"
#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

/// A cell of the greedy solver's visiting order.
struct GreedyCell {
  int32_t row, col;
};

/// One child of a Beam level: the resolved cost of the parent state's map
/// extended by the next g1 node -> `v` (kEpsilon = deletion).
struct BeamCandidate {
  double g;
  int32_t parent;
  NodeId v;
};

/// One A* search state in the per-attempt arena: the map of its parent
/// extended by one pair. The search-order node at depth d - 1 of a state at
/// depth d maps to `image` (kEpsilon = deletion); the earlier pairs are found
/// by walking `parent` links to the root (parent -1).
struct AStarState {
  double g;                   // cost of the resolved part
  int64_t fully_used_edges2;  // g2 edges with both endpoints used
  int32_t parent;
  NodeId image;
};

/// An A* open-list entry: a state's f = g + h, its depth and arena index.
struct AStarOpenEntry {
  double f;
  int32_t depth;
  int32_t state;
};

/// \brief Reusable per-thread buffers of the GED hot path (bipartite
/// matrix build, assignment solvers, Beam, exact A*, MapCost, lower
/// bounds). A query computes hundreds of GEDs; pulling these out of the
/// per-call scope makes the whole d(Q, G) evaluation allocation-free in the
/// steady state.
///
/// Every member is private to one call frame of the function that uses it
/// (the functions never call each other through the same member), so a
/// single thread-local instance is safe.
struct GedScratch {
  // --- SolveAssignment (Jonker–Volgenant) ---
  std::vector<double> jv_u, jv_v, jv_minv;
  std::vector<int32_t> jv_col_to_row, jv_way, jv_used;
  /// The used columns as bits, eight columns per byte (see JvScanArgs).
  std::vector<uint8_t> jv_used_mask;
  // --- SolveAssignmentGreedy ---
  /// Distinct costs, their hash slots, each cell's distinct cost, the
  /// distinct costs in ascending order, their next sorted position, and the
  /// cells in visiting order.
  std::vector<double> greedy_values;
  std::vector<int32_t> greedy_slots, greedy_cell_value, greedy_by_cost,
      greedy_next;
  std::vector<GreedyCell> greedy_cells;
  std::vector<uint8_t> greedy_row_used, greedy_col_used;
  // --- BipartiteGed* ---
  CostMatrix cost_matrix;
  Assignment assignment;
  /// The Hungarian tier's local edge cost of each pair of neighbour-
  /// multiset classes (row-major, g1 classes x g2 classes).
  std::vector<double> class_costs;
  /// The prepared forms that the Graph-taking entry points (Hungarian,
  /// GedComputer::Compute, the lower bounds) derive on the fly. None of
  /// them calls another through these.
  PreparedGraph prepared1, prepared2;
  // --- BeamGed ---
  /// Surviving partial maps, one row per state: images of g1 nodes
  /// [0, depth) (stride n1), preimages of g2 nodes (stride n2, kEpsilon =
  /// unused) and the resolved cost. `beam_next_*` hold the level being
  /// built; the two sets swap after each level.
  std::vector<NodeId> beam_images, beam_next_images;
  std::vector<NodeId> beam_preimages, beam_next_preimages;
  std::vector<double> beam_g;
  std::vector<BeamCandidate> beam_candidates;
  /// 1 on the g2 images of the current node's mapped neighbors (all 0
  /// between states).
  std::vector<uint8_t> beam_mark;
  NodeMapping beam_map;
  /// GedComputer::Compute's per-call results. A tier that Compute fans out
  /// to a pool worker writes its own one of these in the calling thread's
  /// scratch while Compute waits for it.
  ApproxGedResult vj_result, hung_result, beam_result;
  // --- ExactGed (A*) ---
  /// The attempt's search states and its open list (a binary heap). Both
  /// are released after an attempt that grew them past a fixed bound.
  std::vector<AStarState> astar_states;
  std::vector<AStarOpenEntry> astar_open;
  /// g1's search order, each g1 node's depth in it, and the g1 edges with
  /// an endpoint at depth >= d (n1 + 1 entries).
  std::vector<NodeId> astar_order;
  std::vector<int32_t> astar_depth_of;
  std::vector<int64_t> astar_suffix_edges1;
  /// g1's distinct labels (sorted), each g2 node's dense label id (1 +
  /// rank in that list; 0 for a label g1 lacks), the label histograms of
  /// the search-order suffixes (row d covers order[d..n1), one column per
  /// id) and the unused g2 nodes' histogram at the expanded state.
  std::vector<Label> astar_labels;
  std::vector<int32_t> astar_dense2;
  std::vector<int32_t> astar_suffix_hist, astar_unused_hist;
  /// The expanded state's map: images by depth, the depth that uses each g2
  /// node (-1 = unused), and 1 on the images of the expanded node's mapped
  /// neighbors (all 0 between expansions).
  std::vector<NodeId> astar_images;
  std::vector<int32_t> astar_used_by;
  std::vector<uint8_t> astar_mark;
  // --- MapCost ---
  std::vector<NodeId> preimage;
};

/// The calling thread's GED scratch (created on first use).
GedScratch& ThreadGedScratch();

}  // namespace lan

#endif  // LAN_GED_GED_SCRATCH_H_
