#include "graph/prepared_graph.h"

#include <algorithm>
#include <functional>

namespace lan {

void PrepareSortedFacts(const Graph& g, PreparedGraph* out) {
  const int32_t n = g.NumNodes();
  out->num_nodes = n;
  out->num_edges = g.NumEdges();
  out->sorted_labels.assign(g.labels().begin(), g.labels().end());
  std::sort(out->sorted_labels.begin(), out->sorted_labels.end());
  out->sorted_degrees.resize(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    out->sorted_degrees[static_cast<size_t>(v)] = g.Degree(v);
  }
  std::sort(out->sorted_degrees.begin(), out->sorted_degrees.end(),
            std::greater<int32_t>());
}

void PrepareClasses(const Graph& g, PreparedGraph* out) {
  const int32_t n = g.NumNodes();
  out->num_nodes = n;
  out->num_edges = g.NumEdges();
  out->node_class.resize(static_cast<size_t>(n));
  std::vector<Label>& lists = out->class_labels;
  std::vector<int32_t>& offsets = out->class_offsets;
  std::vector<uint64_t>& hashes = out->class_hashes;
  lists.clear();
  offsets.assign(1, 0);
  hashes.clear();
  for (NodeId v = 0; v < n; ++v) {
    // v's sorted neighbour labels, appended as a candidate new class.
    const size_t begin = lists.size();
    for (NodeId t : g.Neighbors(v)) lists.push_back(g.label(t));
    const auto first = lists.begin() + static_cast<ptrdiff_t>(begin);
    std::sort(first, lists.end());
    uint64_t hash = lists.size() - begin;
    for (auto it = first; it != lists.end(); ++it) {
      hash = (hash ^ static_cast<uint32_t>(*it)) * 0x100000001b3ull;
    }
    int32_t cls = -1;
    for (size_t c = 0; c < hashes.size(); ++c) {
      if (hashes[c] != hash) continue;
      const size_t c0 = static_cast<size_t>(offsets[c]);
      const size_t len = static_cast<size_t>(offsets[c + 1]) - c0;
      if (len == lists.size() - begin &&
          std::equal(first, lists.end(),
                     lists.begin() + static_cast<ptrdiff_t>(c0))) {
        cls = static_cast<int32_t>(c);
        break;
      }
    }
    if (cls >= 0) {
      lists.resize(begin);
    } else {
      cls = static_cast<int32_t>(hashes.size());
      hashes.push_back(hash);
      offsets.push_back(static_cast<int32_t>(lists.size()));
    }
    out->node_class[static_cast<size_t>(v)] = cls;
  }
}

void PrepareGraph(const Graph& g, PreparedGraph* out) {
  PrepareClasses(g, out);
  PrepareSortedFacts(g, out);
}

}  // namespace lan
