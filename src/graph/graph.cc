#include "graph/graph.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"
#include "common/string_util.h"

namespace lan {

Result<Graph> Graph::FromCsr(std::vector<Label> labels,
                             std::vector<int32_t> row_offsets,
                             std::vector<NodeId> neighbors) {
  const size_t n = labels.size();
  if (row_offsets.size() != n + 1 || row_offsets[0] != 0 ||
      static_cast<size_t>(row_offsets[n]) != neighbors.size()) {
    return Status::InvalidArgument("graph csr: bad row offsets");
  }
  for (size_t v = 0; v < n; ++v) {
    const int32_t begin = row_offsets[v];
    const int32_t end = row_offsets[v + 1];
    if (end < begin || end > row_offsets[n]) {
      return Status::InvalidArgument(
          StrFormat("graph csr: bad offsets of row %zu", v));
    }
    for (int32_t i = begin; i < end; ++i) {
      const NodeId u = neighbors[static_cast<size_t>(i)];
      if (u < 0 || static_cast<size_t>(u) >= n) {
        return Status::InvalidArgument(
            StrFormat("graph csr: neighbor %d of node %zu out of range", u,
                      v));
      }
      if (static_cast<size_t>(u) == v) {
        return Status::InvalidArgument(
            StrFormat("graph csr: self-loop at node %zu", v));
      }
      if (i > begin && neighbors[static_cast<size_t>(i) - 1] >= u) {
        return Status::InvalidArgument(
            StrFormat("graph csr: row %zu not strictly ascending", v));
      }
    }
  }
  Graph g;
  g.labels_ = std::move(labels);
  g.row_offsets_ = std::move(row_offsets);
  g.neighbors_ = std::move(neighbors);
  // Rows are sorted and in range, so symmetry is one binary search per
  // slot.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      if (!g.HasEdge(u, v)) {
        return Status::InvalidArgument(StrFormat(
            "graph csr: edge (%d,%d) missing its reverse slot", v, u));
      }
    }
  }
  return g;
}

NodeId Graph::AddNode(Label label) {
  if (row_offsets_.empty()) row_offsets_.push_back(0);
  labels_.push_back(label);
  row_offsets_.push_back(row_offsets_.back());
  return static_cast<NodeId>(labels_.size() - 1);
}

void Graph::InsertNeighbor(NodeId u, NodeId v) {
  const auto begin = neighbors_.begin() + row_offsets_[static_cast<size_t>(u)];
  const auto end =
      neighbors_.begin() + row_offsets_[static_cast<size_t>(u) + 1];
  neighbors_.insert(std::lower_bound(begin, end, v), v);
  for (size_t i = static_cast<size_t>(u) + 1; i < row_offsets_.size(); ++i) {
    ++row_offsets_[i];
  }
}

void Graph::EraseNeighbor(NodeId u, NodeId v) {
  const auto begin = neighbors_.begin() + row_offsets_[static_cast<size_t>(u)];
  const auto end =
      neighbors_.begin() + row_offsets_[static_cast<size_t>(u) + 1];
  neighbors_.erase(std::lower_bound(begin, end, v));
  for (size_t i = static_cast<size_t>(u) + 1; i < row_offsets_.size(); ++i) {
    --row_offsets_[i];
  }
}

Status Graph::AddEdge(NodeId u, NodeId v) {
  if (!ValidNode(u) || !ValidNode(v)) {
    return Status::OutOfRange(StrFormat("edge (%d,%d) out of range", u, v));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self-loop at node %d", u));
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists(StrFormat("edge (%d,%d) exists", u, v));
  }
  InsertNeighbor(u, v);
  InsertNeighbor(v, u);
  return Status::OK();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (!ValidNode(u) || !ValidNode(v)) return false;
  const std::span<const NodeId> au = Neighbors(u);
  return std::binary_search(au.begin(), au.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(static_cast<size_t>(NumEdges()));
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

Label Graph::MaxLabelPlusOne() const {
  Label max_label = -1;
  for (Label l : labels()) max_label = std::max(max_label, l);
  return max_label + 1;
}

std::unordered_map<Label, int32_t> Graph::LabelHistogram() const {
  std::unordered_map<Label, int32_t> hist;
  for (Label l : labels()) ++hist[l];
  return hist;
}

bool Graph::IsConnected() const {
  if (NumNodes() == 0) return true;
  std::vector<bool> seen(static_cast<size_t>(NumNodes()), false);
  std::deque<NodeId> queue{0};
  seen[0] = true;
  int32_t visited = 1;
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : Neighbors(u)) {
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        ++visited;
        queue.push_back(v);
      }
    }
  }
  return visited == NumNodes();
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  if (!HasEdge(u, v)) {
    return Status::NotFound(StrFormat("edge (%d,%d) absent", u, v));
  }
  EraseNeighbor(u, v);
  EraseNeighbor(v, u);
  return Status::OK();
}

Status Graph::RemoveNode(NodeId v) {
  if (!ValidNode(v)) {
    return Status::OutOfRange(StrFormat("node %d out of range", v));
  }
  // Detach v from all neighbors.
  const std::span<const NodeId> row = Neighbors(v);
  const std::vector<NodeId> neighbors(row.begin(), row.end());
  for (NodeId u : neighbors) LAN_CHECK_OK(RemoveEdge(v, u));

  const NodeId last = NumNodes() - 1;
  // Detach the last node too; it moves into slot v below.
  const std::span<const NodeId> last_row = Neighbors(last);
  const std::vector<NodeId> last_neighbors(last_row.begin(), last_row.end());
  for (NodeId u : last_neighbors) LAN_CHECK_OK(RemoveEdge(last, u));
  labels_[static_cast<size_t>(v)] = labels_[static_cast<size_t>(last)];
  labels_.pop_back();
  row_offsets_.pop_back();
  // Nothing is left in the last row, and v's row was emptied above (or v
  // was the last node), so the edges re-attach to slot v.
  if (v != last) {
    for (NodeId u : last_neighbors) LAN_CHECK_OK(AddEdge(v, u));
  }
  return Status::OK();
}

bool Graph::operator==(const Graph& other) const {
  // Sorted rows make the CSR canonical; a graph that never had a node may
  // lack the single 0 offset of one whose nodes were all removed.
  return labels_ == other.labels_ && neighbors_ == other.neighbors_ &&
         (NumNodes() == 0 || row_offsets_ == other.row_offsets_);
}

uint64_t Graph::ContentHash() const {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  };
  mix(static_cast<uint64_t>(NumNodes()));
  for (Label label : labels()) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(label)));
  }
  mix(static_cast<uint64_t>(NumEdges()));
  // Sorted adjacency gives the (u, v) u < v edge set in lexicographic
  // order without materializing Edges().
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (v > u) {
        mix((static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
            static_cast<uint32_t>(v));
      }
    }
  }
  return h;
}

std::string Graph::ToString() const {
  return StrFormat("Graph(n=%d, m=%lld)", NumNodes(),
                   static_cast<long long>(NumEdges()));
}

}  // namespace lan
