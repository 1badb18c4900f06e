#include "pg/proximity_graph.h"

#include <deque>

#include "common/string_util.h"

namespace lan {

Result<ProximityGraph> ProximityGraph::FromEdges(
    GraphId num_nodes, std::span<const std::pair<GraphId, GraphId>> edges) {
  if (num_nodes < 0) {
    return Status::InvalidArgument(StrFormat("pg node count %d", num_nodes));
  }
  for (const auto& [a, b] : edges) {
    if (a < 0 || b < 0 || a >= num_nodes || b >= num_nodes) {
      return Status::OutOfRange(
          StrFormat("pg edge (%d,%d) out of range", a, b));
    }
    if (a == b) {
      return Status::InvalidArgument(StrFormat("pg self-loop at %d", a));
    }
  }
  return Symmetrize(num_nodes, [edges](const auto& emit) {
    for (const auto& [a, b] : edges) emit(a, b);
  });
}

bool ProximityGraph::IsConnected() const {
  const GraphId num_nodes = NumNodes();
  if (num_nodes == 0) return true;
  std::vector<bool> seen(static_cast<size_t>(num_nodes), false);
  std::deque<GraphId> queue{0};
  seen[0] = true;
  size_t visited = 1;
  while (!queue.empty()) {
    GraphId u = queue.front();
    queue.pop_front();
    for (GraphId v : NeighborSpan(u)) {
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        ++visited;
        queue.push_back(v);
      }
    }
  }
  return visited == static_cast<size_t>(num_nodes);
}

}  // namespace lan
