#ifndef LAN_GED_GED_EXACT_H_
#define LAN_GED_GED_EXACT_H_

#include <cstdint>

#include "common/status.h"
#include "ged/ged_costs.h"
#include "ged/node_mapping.h"
#include "graph/graph.h"

namespace lan {

struct GedScratch;

/// \brief Budget for the exact A* search: a count of expanded states, so
/// whether an attempt finishes depends only on its two graphs.
struct ExactGedOptions {
  /// Abort after this many expanded search states (<=0: unlimited). The
  /// default matches GedOptions::exact_max_expansions; an unlimited search
  /// can grow its state arena past 1 GB on one hard AIDS pair.
  int64_t max_expansions = 10'000;
  /// Ignored: A* has no wall-clock budget. Declared only because lanbench
  /// assigns it; it goes when lanbench stops doing so.
  double time_budget_seconds = 0.0;
  /// Optional known upper bound used to prune (e.g., from Hung/VJ/Beam).
  double upper_bound = -1.0;
  /// Edit-operation costs (uniform by default, as in the paper).
  GedCosts costs;
};

/// \brief Outcome of an exact computation.
struct ExactGedResult {
  double distance = 0.0;
  NodeMapping mapping;
  int64_t expansions = 0;
};

/// \brief Exact graph edit distance via A* over node maps (the classical
/// algorithm of Riesen et al., Sec. III-A of the paper's references), under
/// `options.costs`.
///
/// The search runs from the smaller graph. Its nodes are mapped in a fixed
/// order (degree descending); each search state is a partial map, and h()
/// combines the label-multiset and edge-count lower bounds on the unmapped
/// remainder. States are popped f ascending, deeper first on ties, and a
/// state's children enter the open list v ascending, then ε.
///
/// States live in a per-attempt arena in the thread's GedScratch as
/// {g, fully-used g2 edges, parent index, image} records: a state stores
/// only its own pair, and an expansion rebuilds its map, the used g2 nodes
/// and the unused-label histogram once by walking the parent chain. The open
/// list is a binary heap of {f, depth, state index}. Labels map to dense ids
/// once per attempt, so the suffix label histograms are one flat table and
/// each child's h is O(1). An attempt that grew the arena or the heap past a
/// fixed number of entries releases that storage when it ends; below the
/// bound it is kept, and the next attempt allocates nothing.
///
/// Returns Status::Timeout when the expansion budget is exhausted before
/// the optimum is proven. The mapping is empty when the upper bound was
/// proven optimal without reaching a goal state.
Result<ExactGedResult> ExactGed(const Graph& g1, const Graph& g2,
                                const ExactGedOptions& options = {});

/// \brief ExactGed's search without the mapping or a Status, in `scratch`:
/// returns true and sets `*distance` to ExactGed's distance when the
/// optimum is proven within the budget, false otherwise.
bool ExactGedDistance(const Graph& g1, const Graph& g2,
                      const ExactGedOptions& options, GedScratch* scratch,
                      double* distance);

}  // namespace lan

#endif  // LAN_GED_GED_EXACT_H_
