#ifndef LAN_GED_GED_SCRATCH_H_
#define LAN_GED_GED_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "ged/assignment.h"
#include "ged/ged_bipartite.h"
#include "graph/graph.h"

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

/// \brief Reusable per-thread buffers of the approximate-GED hot path
/// (bipartite matrix build, assignment solvers, Beam, MapCost, lower
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
  /// Flattened sorted far-endpoint label lists (CSR layout: node v's
  /// labels live at [offsets[v], offsets[v + 1])).
  std::vector<Label> labels1, labels2;
  std::vector<int32_t> offsets1, offsets2;
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
  /// GedComputer::Compute's per-call results.
  ApproxGedResult vj_result, hung_result, beam_result;
  // --- MapCost ---
  std::vector<NodeId> preimage;
  // --- Lower bounds (label multisets, degree sequences) ---
  std::vector<int32_t> lb_values1, lb_values2;
};

/// The calling thread's GED scratch (created on first use).
GedScratch& ThreadGedScratch();

}  // namespace lan

#endif  // LAN_GED_GED_SCRATCH_H_
