#include "graph/graph_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace lan {
namespace {

/// Draws a node count around the family average (clamped to >= 3).
int32_t DrawNodeCount(double avg, Rng* rng) {
  const double n = rng->NextGaussian(avg, 0.25 * avg);
  return std::max<int32_t>(3, static_cast<int32_t>(std::lround(n)));
}

/// Zipf-like label sampler: weight(i) ~ 1 / (i+1)^skew.
Label DrawLabel(int32_t num_labels, double skew, Rng* rng) {
  if (skew <= 0.0) {
    return static_cast<Label>(rng->NextBounded(static_cast<uint64_t>(num_labels)));
  }
  // Inverse-CDF by linear scan; alphabets are small (<= 51).
  double total = 0.0;
  for (int32_t i = 0; i < num_labels; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
  }
  double r = rng->NextDouble() * total;
  for (int32_t i = 0; i < num_labels; ++i) {
    r -= 1.0 / std::pow(static_cast<double>(i + 1), skew);
    if (r <= 0.0) return i;
  }
  return num_labels - 1;
}

/// Adds `extra` additional edges between random non-adjacent pairs,
/// respecting a per-node degree cap. Gives up after a bounded number of
/// rejected attempts (dense small graphs can saturate).
void AddExtraEdges(Graph* g, int64_t extra, int32_t degree_cap, Rng* rng) {
  const int32_t n = g->NumNodes();
  if (n < 3) return;
  int64_t attempts = 0;
  const int64_t max_attempts = 50 * (extra + 1);
  while (extra > 0 && attempts < max_attempts) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(n)));
    NodeId v = static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(n)));
    if (u == v || g->HasEdge(u, v)) continue;
    if (degree_cap > 0 &&
        (g->Degree(u) >= degree_cap || g->Degree(v) >= degree_cap)) {
      continue;
    }
    LAN_CHECK_OK(g->AddEdge(u, v));
    --extra;
  }
}

/// Random spanning tree via random attachment (preferential to low ids
/// slightly, which yields chain-ish molecules rather than stars).
void BuildRandomTree(Graph* g, int32_t degree_cap, Rng* rng) {
  const int32_t n = g->NumNodes();
  for (NodeId v = 1; v < n; ++v) {
    // Pick an existing node with capacity; bias toward recent nodes so the
    // tree has molecule-like diameter.
    for (int tries = 0; tries < 64; ++tries) {
      NodeId u;
      if (rng->NextBool(0.6)) {
        // Attach near the frontier.
        int32_t window = std::max<int32_t>(1, v / 4);
        u = static_cast<NodeId>(v - 1 -
                                rng->NextBounded(static_cast<uint64_t>(window)));
      } else {
        u = static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(v)));
      }
      if (degree_cap > 0 && g->Degree(u) >= degree_cap && tries < 63) continue;
      LAN_CHECK_OK(g->AddEdge(u, v));
      break;
    }
  }
}

Graph GenerateMoleculeLike(const DatasetSpec& spec, Rng* rng) {
  // Molecules are a heavy-atom backbone plus bundles of identical
  // substituents (H, CH3, halogens) hanging off single atoms. The bundles
  // matter beyond realism: leaves with the same label under the same
  // parent are WL-equivalent at every refinement level, which is the
  // redundancy the compressed GNN-graph (Sec. VI) exploits.
  Graph g;
  const int32_t n = DrawNodeCount(spec.avg_nodes, rng);
  const int32_t backbone = std::max<int32_t>(2, (n * 11) / 20);
  for (int32_t i = 0; i < backbone; ++i) {
    g.AddNode(DrawLabel(spec.num_labels, spec.label_skew, rng));
  }
  BuildRandomTree(&g, /*degree_cap=*/3, rng);

  // Attach substituent bundles until the node budget is used.
  int32_t remaining = n - backbone;
  while (remaining > 0) {
    const NodeId parent = static_cast<NodeId>(
        rng->NextBounded(static_cast<uint64_t>(backbone)));
    if (g.Degree(parent) >= 4) continue;
    const Label label = DrawLabel(spec.num_labels, spec.label_skew, rng);
    const int32_t capacity = 4 - g.Degree(parent);  // valence bound
    const int32_t bundle = static_cast<int32_t>(std::min<int64_t>(
        {static_cast<int64_t>(remaining),
         static_cast<int64_t>(1 + rng->NextBounded(3)),
         static_cast<int64_t>(capacity)}));
    for (int32_t b = 0; b < bundle; ++b) {
      const NodeId leaf = g.AddNode(label);
      LAN_CHECK_OK(g.AddEdge(parent, leaf));
    }
    remaining -= bundle;
  }

  // Ring closures among backbone atoms up to the edge target.
  const double edge_ratio = spec.avg_edges / spec.avg_nodes;
  const int64_t target_edges =
      std::max<int64_t>(g.NumEdges(), std::llround(edge_ratio * n));
  int64_t extra = target_edges - g.NumEdges();
  int64_t attempts = 0;
  while (extra > 0 && attempts < 50 * (extra + 1)) {
    ++attempts;
    NodeId u = static_cast<NodeId>(
        rng->NextBounded(static_cast<uint64_t>(backbone)));
    NodeId v = static_cast<NodeId>(
        rng->NextBounded(static_cast<uint64_t>(backbone)));
    if (u == v || g.HasEdge(u, v)) continue;
    if (g.Degree(u) >= 4 || g.Degree(v) >= 4) continue;
    LAN_CHECK_OK(g.AddEdge(u, v));
    --extra;
  }
  return g;
}

Graph GenerateCfgLike(const DatasetSpec& spec, Rng* rng) {
  Graph g;
  const int32_t n = DrawNodeCount(spec.avg_nodes, rng);
  // Control flow is dominated by straight-line runs of similar
  // instructions; emit labels in runs of 2-6 so interior run nodes are
  // locally symmetric (the WL redundancy that CGs compress).
  {
    int32_t emitted = 0;
    while (emitted < n) {
      const Label label = DrawLabel(spec.num_labels, spec.label_skew, rng);
      const int32_t run = static_cast<int32_t>(
          std::min<int64_t>(n - emitted, 2 + rng->NextBounded(5)));
      for (int32_t i = 0; i < run; ++i) g.AddNode(label);
      emitted += run;
    }
  }
  // Basic-block chain.
  for (NodeId v = 1; v < n; ++v) LAN_CHECK_OK(g.AddEdge(v - 1, v));
  // Forward branches (if/else joins) and back edges (loops).
  const double edge_ratio = spec.avg_edges / spec.avg_nodes;
  const int64_t target_edges =
      std::max<int64_t>(n - 1, std::llround(edge_ratio * n));
  int64_t extra = target_edges - g.NumEdges();
  int64_t attempts = 0;
  while (extra > 0 && attempts < 50 * (extra + 1)) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(n)));
    // Branch span: short forward jumps dominate, occasional long loop edge.
    int32_t span = 2 + static_cast<int32_t>(rng->NextBounded(
                           rng->NextBool(0.8) ? 4 : std::max(2, n / 2)));
    NodeId v = u + span;
    if (v >= n || g.HasEdge(u, v)) continue;
    LAN_CHECK_OK(g.AddEdge(u, v));
    --extra;
  }
  return g;
}

Graph GenerateSynLike(const DatasetSpec& spec, Rng* rng) {
  Graph g;
  const int32_t n = DrawNodeCount(spec.avg_nodes, rng);
  for (int32_t i = 0; i < n; ++i) {
    g.AddNode(DrawLabel(spec.num_labels, spec.label_skew, rng));
  }
  // Connected random graph: uniform spanning-tree-ish backbone then G(n,m).
  for (NodeId v = 1; v < n; ++v) {
    NodeId u = static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(v)));
    LAN_CHECK_OK(g.AddEdge(u, v));
  }
  const double edge_ratio = spec.avg_edges / spec.avg_nodes;
  const int64_t target_edges =
      std::max<int64_t>(n - 1, std::llround(edge_ratio * n));
  AddExtraEdges(&g, target_edges - g.NumEdges(), /*degree_cap=*/0, rng);
  return g;
}

}  // namespace

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kAidsLike:
      return "AIDS";
    case DatasetKind::kLinuxLike:
      return "LINUX";
    case DatasetKind::kPubchemLike:
      return "PUBCHEM";
    case DatasetKind::kSynLike:
      return "SYN";
  }
  return "?";
}

DatasetSpec DatasetSpec::AidsLike(int64_t num_graphs) {
  DatasetSpec s;
  s.kind = DatasetKind::kAidsLike;
  s.num_graphs = num_graphs;
  s.num_labels = 51;
  s.avg_nodes = 25.6;
  s.avg_edges = 27.5;
  s.label_skew = 1.6;  // molecules: a few elements dominate
  return s;
}

DatasetSpec DatasetSpec::LinuxLike(int64_t num_graphs) {
  DatasetSpec s;
  s.kind = DatasetKind::kLinuxLike;
  s.num_graphs = num_graphs;
  s.num_labels = 36;
  s.avg_nodes = 35.5;
  s.avg_edges = 37.7;
  s.label_skew = 1.1;  // instruction categories, moderately skewed
  return s;
}

DatasetSpec DatasetSpec::PubchemLike(int64_t num_graphs) {
  DatasetSpec s;
  s.kind = DatasetKind::kPubchemLike;
  s.num_graphs = num_graphs;
  s.num_labels = 10;
  s.avg_nodes = 48.2;
  s.avg_edges = 50.8;
  s.label_skew = 1.4;
  return s;
}

DatasetSpec DatasetSpec::SynLike(int64_t num_graphs) {
  DatasetSpec s;
  s.kind = DatasetKind::kSynLike;
  s.num_graphs = num_graphs;
  s.num_labels = 5;
  s.avg_nodes = 10.1;
  s.avg_edges = 15.9;
  s.label_skew = 0.0;
  return s;
}

Graph GenerateGraph(const DatasetSpec& spec, Rng* rng) {
  switch (spec.kind) {
    case DatasetKind::kAidsLike:
    case DatasetKind::kPubchemLike:
      return GenerateMoleculeLike(spec, rng);
    case DatasetKind::kLinuxLike:
      return GenerateCfgLike(spec, rng);
    case DatasetKind::kSynLike:
      return GenerateSynLike(spec, rng);
  }
  LAN_LOG(Fatal) << "unknown dataset kind";
  return Graph();
}

GraphDatabase GenerateDatabase(const DatasetSpec& spec, uint64_t seed) {
  Rng rng(seed);
  GraphDatabase db(spec.num_labels);
  db.set_name(DatasetKindName(spec.kind));
  for (int64_t i = 0; i < spec.num_graphs; ++i) {
    auto added = db.Add(GenerateGraph(spec, &rng));
    LAN_CHECK(added.ok());
  }
  return db;
}

Graph PerturbGraph(const Graph& g, int num_edits, int32_t num_labels,
                   Rng* rng) {
  Graph out = g;
  for (int i = 0; i < num_edits; ++i) {
    const int op = static_cast<int>(rng->NextBounded(5));
    switch (op) {
      case 0: {  // relabel
        if (out.NumNodes() == 0) break;
        NodeId v = static_cast<NodeId>(
            rng->NextBounded(static_cast<uint64_t>(out.NumNodes())));
        out.set_label(v, static_cast<Label>(rng->NextBounded(
                             static_cast<uint64_t>(num_labels))));
        break;
      }
      case 1: {  // edge insert
        if (out.NumNodes() < 2) break;
        for (int tries = 0; tries < 16; ++tries) {
          NodeId u = static_cast<NodeId>(
              rng->NextBounded(static_cast<uint64_t>(out.NumNodes())));
          NodeId v = static_cast<NodeId>(
              rng->NextBounded(static_cast<uint64_t>(out.NumNodes())));
          if (u == v || out.HasEdge(u, v)) continue;
          LAN_CHECK_OK(out.AddEdge(u, v));
          break;
        }
        break;
      }
      case 2: {  // edge delete
        auto edges = out.Edges();
        if (edges.empty()) break;
        const auto& [u, v] =
            edges[rng->NextBounded(static_cast<uint64_t>(edges.size()))];
        LAN_CHECK_OK(out.RemoveEdge(u, v));
        break;
      }
      case 3: {  // node insert (attach to a random node if any)
        NodeId v = out.AddNode(static_cast<Label>(
            rng->NextBounded(static_cast<uint64_t>(num_labels))));
        if (out.NumNodes() > 1) {
          NodeId u = static_cast<NodeId>(
              rng->NextBounded(static_cast<uint64_t>(out.NumNodes() - 1)));
          LAN_CHECK_OK(out.AddEdge(u, v));
        }
        break;
      }
      case 4: {  // node delete (keep at least 2 nodes)
        if (out.NumNodes() <= 2) break;
        NodeId v = static_cast<NodeId>(
            rng->NextBounded(static_cast<uint64_t>(out.NumNodes())));
        LAN_CHECK_OK(out.RemoveNode(v));
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace lan
