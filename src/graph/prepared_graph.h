#ifndef LAN_GRAPH_PREPARED_GRAPH_H_
#define LAN_GRAPH_PREPARED_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace lan {

/// \brief The per-graph facts the GED tiers read, derived once per graph
/// instead of once per pair.
///
/// A node's neighbour-label multiset (the sorted labels of its neighbours)
/// is what the Hungarian tier's local edge cost compares. Nodes with equal
/// multisets share one *class*, so a pair's n1 x n2 local edge costs come
/// from a C1 x C2 table of class pairs (a molecule-like graph has far fewer
/// classes than nodes). Everything here is a pure function of the graph;
/// it is never persisted. `GraphDatabase::Add` prepares every member graph
/// and a query is prepared once per search.
struct PreparedGraph {
  int32_t num_nodes = 0;
  int64_t num_edges = 0;
  /// node_class[v] = the class of v's neighbour-label multiset. Classes
  /// are numbered by first occurrence in node order.
  std::vector<int32_t> node_class;
  /// Class c's sorted neighbour labels live at
  /// class_labels[class_offsets[c] .. class_offsets[c + 1]).
  std::vector<Label> class_labels;
  std::vector<int32_t> class_offsets;
  /// A hash of each class's label list (equal lists hash equal).
  std::vector<uint64_t> class_hashes;
  /// The node labels ascending and the degrees descending (the cheap
  /// lower bounds merge these).
  std::vector<Label> sorted_labels;
  std::vector<int32_t> sorted_degrees;

  int32_t NumClasses() const {
    return static_cast<int32_t>(class_offsets.size()) - 1;
  }
  std::span<const Label> ClassLabels(int32_t c) const {
    const int32_t begin = class_offsets[static_cast<size_t>(c)];
    const int32_t end = class_offsets[static_cast<size_t>(c) + 1];
    return {class_labels.data() + begin, static_cast<size_t>(end - begin)};
  }
};

/// Derives `out` from `g`, reusing `out`'s storage (no allocation once it
/// has held a graph at least as large): PrepareClasses, then
/// PrepareSortedFacts.
void PrepareGraph(const Graph& g, PreparedGraph* out);

/// The sizes and the neighbour-multiset classes alone (what the Hungarian
/// tier reads), for callers that prepare a graph on the fly for it.
void PrepareClasses(const Graph& g, PreparedGraph* out);

/// The sizes and the sorted labels and degrees alone (what the lower
/// bounds read).
void PrepareSortedFacts(const Graph& g, PreparedGraph* out);

}  // namespace lan

#endif  // LAN_GRAPH_PREPARED_GRAPH_H_
