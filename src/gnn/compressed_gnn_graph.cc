#include "gnn/compressed_gnn_graph.h"

#include <cmath>
#include <map>
#include <utility>

#include "common/logging.h"
#include "graph/wl_labeling.h"

namespace lan {

int64_t CompressedGnnGraph::NumNodes() const {
  int64_t total = 0;
  for (const auto& level : group_size) {
    total += static_cast<int64_t>(level.size());
  }
  return total;
}

int64_t CompressedGnnGraph::NumEdges() const {
  int64_t total = 0;
  for (const auto& op : aggregation) {
    total += static_cast<int64_t>(op.entries.size());
  }
  return total;
}

const SparseMatrix& CompressedGnnGraph::LiftOperator(int level) const {
  LAN_CHECK_GE(level, 1);
  LAN_CHECK_LE(level, num_layers);
  return lift[static_cast<size_t>(level) - 1];
}

std::vector<float> CompressedGnnGraph::TopLevelWeights() const {
  const auto& top = group_size.back();
  std::vector<float> weights;
  weights.reserve(top.size());
  for (int32_t s : top) weights.push_back(static_cast<float>(s));
  return weights;
}

void CompressedGnnGraph::DeriveInferenceConstants() {
  log_group_size.resize(static_cast<size_t>(num_layers));
  for (size_t l = 0; l < log_group_size.size(); ++l) {
    std::vector<float>& log_w = log_group_size[l];
    log_w.clear();
    for (int32_t size : group_size[l]) {
      const float w = static_cast<float>(size);
      LAN_CHECK_GT(w, 0.0f);
      log_w.push_back(std::log(w));
    }
  }
  readout_weights = TopLevelWeights();
}

CompressedGnnGraph BuildCompressedGnnGraph(const Graph& g, int num_layers) {
  LAN_CHECK_GT(g.NumNodes(), 0);
  LAN_CHECK_GE(num_layers, 0);

  // Lines 2-5 of Algorithm 5: WL labels are the grouping keys; our WL ids
  // are already dense per level, so they double as group indices.
  const std::vector<std::vector<int32_t>> wl = ComputeWlLabels(g, num_layers);

  CompressedGnnGraph cg;
  cg.num_layers = num_layers;
  cg.node_group = wl;
  std::vector<std::vector<int32_t>>& group_size = cg.group_size;
  group_size.resize(wl.size());
  for (size_t l = 0; l < wl.size(); ++l) {
    int32_t num_groups = 0;
    for (int32_t id : wl[l]) num_groups = std::max(num_groups, id + 1);
    group_size[l].assign(static_cast<size_t>(num_groups), 0);
    for (int32_t id : wl[l]) ++group_size[l][static_cast<size_t>(id)];
  }
  auto num_groups_at = [&group_size](int l) {
    return static_cast<int32_t>(group_size[static_cast<size_t>(l)].size());
  };

  // Level-0 representative labels.
  cg.level0_group_labels.assign(group_size[0].size(), 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const size_t group = static_cast<size_t>(wl[0][static_cast<size_t>(v)]);
    cg.level0_group_labels[group] = g.label(v);
  }

  // Parent mapping: the level-(l-1) group containing each level-l group
  // (WL refinement only ever splits groups).
  cg.parent.resize(static_cast<size_t>(num_layers));
  for (int l = 1; l <= num_layers; ++l) {
    auto& par = cg.parent[static_cast<size_t>(l) - 1];
    par.assign(group_size[static_cast<size_t>(l)].size(), -1);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const int32_t child = wl[static_cast<size_t>(l)][static_cast<size_t>(v)];
      const int32_t prev =
          wl[static_cast<size_t>(l) - 1][static_cast<size_t>(v)];
      if (par[static_cast<size_t>(child)] < 0) {
        par[static_cast<size_t>(child)] = prev;
      } else {
        LAN_DCHECK_EQ(par[static_cast<size_t>(child)], prev);
      }
    }
  }

  // Precompute the lift operators used by cross-graph attention.
  cg.lift.resize(static_cast<size_t>(num_layers));
  for (int l = 1; l <= num_layers; ++l) {
    const auto& par = cg.parent[static_cast<size_t>(l) - 1];
    SparseMatrix op;
    op.rows = static_cast<int32_t>(par.size());
    op.cols = num_groups_at(l - 1);
    op.entries.reserve(par.size());
    for (int32_t j = 0; j < op.rows; ++j) {
      op.entries.push_back({j, par[static_cast<size_t>(j)], 1.0f});
    }
    cg.lift[static_cast<size_t>(l) - 1] = std::move(op);
  }

  // Lines 6-10: weighted edges. For each level-l group pick one
  // representative u; the weight toward a level-(l-1) group i is
  // |N(u) ∩ g_{l-1,i}|, plus 1 if u itself lies in g_{l-1,i} (self edge).
  cg.aggregation.resize(static_cast<size_t>(num_layers));
  for (int l = 1; l <= num_layers; ++l) {
    const auto& prev = wl[static_cast<size_t>(l) - 1];
    const auto& cur = wl[static_cast<size_t>(l)];
    const int32_t num_cur_groups = num_groups_at(l);
    // Representative node per current-level group.
    std::vector<NodeId> representative(static_cast<size_t>(num_cur_groups),
                                       -1);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const int32_t grp = cur[static_cast<size_t>(v)];
      if (representative[static_cast<size_t>(grp)] < 0) {
        representative[static_cast<size_t>(grp)] = v;
      }
    }
    SparseMatrix op;
    op.rows = num_cur_groups;
    op.cols = num_groups_at(l - 1);
    for (int32_t j = 0; j < num_cur_groups; ++j) {
      const NodeId u = representative[static_cast<size_t>(j)];
      std::map<int32_t, float> weights;  // source group -> weight
      weights[prev[static_cast<size_t>(u)]] += 1.0f;  // self edge
      for (NodeId t : g.Neighbors(u)) {
        weights[prev[static_cast<size_t>(t)]] += 1.0f;
      }
      for (const auto& [src, w] : weights) {
        op.entries.push_back({j, src, w});
      }
    }
    cg.aggregation[static_cast<size_t>(l) - 1] = std::move(op);
  }

  cg.DeriveInferenceConstants();
  return cg;
}

}  // namespace lan
