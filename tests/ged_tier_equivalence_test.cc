// Reference-equivalence test for the flat-state Beam tier, the two
// assignment solvers (greedy behind VJ, Jonker–Volgenant behind Hungarian)
// and the flat A* behind the exact tier. They were rewritten for speed
// under the contract that every distance, mapping, tie-break and expansion
// count stays bit-for-bit what the straightforward formulations below
// produce: Beam with one heap vector per state and a per-child linear
// preimage scan, the greedy solver as a full sort of (cost, row, col)
// tuples, JV sweeping every column twice per step, and A* with a
// priority_queue of states that own their image vectors and a heuristic
// rebuilt from hash-map label histograms per child. The bipartite tiers
// and the lower bounds now read prepared graphs; their references build
// each pair's matrix and bounds from the two Graphs directly, sorting every
// node's neighbour labels per pair. Those formulations live only here, as
// the references. The JV column scan is dispatched by SIMD level, so its
// cases run at every level the host supports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "ged/assignment.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_costs.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "ged/ged_scratch.h"
#include "ged/node_mapping.h"
#include "graph/graph_generator.h"
#include "graph/prepared_graph.h"

namespace lan {
namespace {

// ---------- Reference Beam ----------

struct BeamState {
  double g = 0.0;              // resolved cost so far
  std::vector<NodeId> images;  // images of g1 nodes [0, depth)
};

double ExtendCost(const Graph& g1, const Graph& g2, const BeamState& state,
                  NodeId v, const GedCosts& costs) {
  const NodeId u = static_cast<NodeId>(state.images.size());
  double delta = 0.0;
  if (v == kEpsilon) {
    delta += costs.node_delete;
    for (NodeId t : g1.Neighbors(u)) {
      if (t < u) delta += costs.edge_delete;
    }
    return delta;
  }
  if (g1.label(u) != g2.label(v)) delta += costs.node_relabel;
  for (NodeId t : g1.Neighbors(u)) {
    if (t >= u) continue;
    const NodeId wt = state.images[static_cast<size_t>(t)];
    if (wt == kEpsilon || !g2.HasEdge(wt, v)) delta += costs.edge_delete;
  }
  for (NodeId w : g2.Neighbors(v)) {
    for (NodeId t = 0; t < u; ++t) {
      if (state.images[static_cast<size_t>(t)] == w) {
        if (!g1.HasEdge(t, u)) delta += costs.edge_insert;
        break;
      }
    }
  }
  return delta;
}

ApproxGedResult ReferenceBeamGed(const Graph& g1, const Graph& g2,
                                 int beam_width, const GedCosts& costs) {
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  std::vector<BeamState> beam{BeamState{}};
  for (NodeId u = 0; u < n1; ++u) {
    std::vector<BeamState> next;
    for (const BeamState& state : beam) {
      std::vector<bool> used(static_cast<size_t>(n2), false);
      for (NodeId w : state.images) {
        if (w != kEpsilon) used[static_cast<size_t>(w)] = true;
      }
      for (NodeId v = 0; v <= n2; ++v) {
        const bool is_epsilon = (v == n2);
        if (!is_epsilon && used[static_cast<size_t>(v)]) continue;
        BeamState child;
        child.g = state.g + ExtendCost(g1, g2, state,
                                       is_epsilon ? kEpsilon : v, costs);
        child.images = state.images;
        child.images.push_back(is_epsilon ? kEpsilon : v);
        next.push_back(std::move(child));
      }
    }
    if (next.size() > static_cast<size_t>(beam_width)) {
      std::partial_sort(next.begin(),
                        next.begin() + static_cast<ptrdiff_t>(beam_width),
                        next.end(), [](const BeamState& a, const BeamState& b) {
                          return a.g < b.g;
                        });
      next.resize(static_cast<size_t>(beam_width));
    }
    beam = std::move(next);
  }
  ApproxGedResult best;
  best.distance = -1.0;
  for (const BeamState& state : beam) {
    NodeMapping map;
    map.image = state.images;
    const double cost = MapCost(g1, g2, map, costs);
    if (best.distance < 0.0 || cost < best.distance) {
      best.distance = cost;
      best.mapping = std::move(map);
    }
  }
  return best;
}

// ---------- Reference assignment solvers ----------

Assignment ReferenceGreedy(const CostMatrix& cost) {
  const int32_t n = cost.n();
  Assignment out;
  out.row_to_col.assign(static_cast<size_t>(n), -1);
  std::vector<std::tuple<double, int32_t, int32_t>> cells;
  for (int32_t r = 0; r < n; ++r) {
    for (int32_t c = 0; c < n; ++c) cells.emplace_back(cost.at(r, c), r, c);
  }
  std::sort(cells.begin(), cells.end());
  std::vector<uint8_t> row_used(static_cast<size_t>(n), 0);
  std::vector<uint8_t> col_used(static_cast<size_t>(n), 0);
  int32_t assigned = 0;
  for (const auto& [x, r, c] : cells) {
    if (row_used[static_cast<size_t>(r)] || col_used[static_cast<size_t>(c)])
      continue;
    row_used[static_cast<size_t>(r)] = 1;
    col_used[static_cast<size_t>(c)] = 1;
    out.row_to_col[static_cast<size_t>(r)] = c;
    out.cost += x;
    if (++assigned == n) break;
  }
  return out;
}

/// Jonker–Volgenant with the textbook per-step sweep over all columns.
Assignment ReferenceJv(const CostMatrix& cost) {
  const int32_t n = cost.n();
  Assignment out;
  out.row_to_col.assign(static_cast<size_t>(n), -1);
  if (n == 0) return out;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t m = static_cast<size_t>(n) + 1;
  std::vector<double> u(m, 0.0), v(m, 0.0);
  std::vector<int32_t> col_to_row(m, 0), way(m, 0);
  for (int32_t i = 1; i <= n; ++i) {
    col_to_row[0] = i;
    int32_t j0 = 0;
    std::vector<double> minv(m, kInf);
    std::vector<uint8_t> used(m, 0);
    do {
      used[static_cast<size_t>(j0)] = 1;
      const int32_t i0 = col_to_row[static_cast<size_t>(j0)];
      double delta = kInf;
      int32_t j1 = -1;
      for (int32_t j = 1; j <= n; ++j) {
        const size_t sj = static_cast<size_t>(j);
        if (used[sj]) continue;
        const double cur =
            cost.at(i0 - 1, j - 1) - u[static_cast<size_t>(i0)] - v[sj];
        if (cur < minv[sj]) {
          minv[sj] = cur;
          way[sj] = j0;
        }
        if (minv[sj] < delta) {
          delta = minv[sj];
          j1 = j;
        }
      }
      for (int32_t j = 0; j <= n; ++j) {
        const size_t sj = static_cast<size_t>(j);
        if (used[sj]) {
          u[static_cast<size_t>(col_to_row[sj])] += delta;
          v[sj] -= delta;
        } else {
          minv[sj] -= delta;
        }
      }
      j0 = j1;
    } while (col_to_row[static_cast<size_t>(j0)] != 0);
    do {
      const int32_t j1 = way[static_cast<size_t>(j0)];
      col_to_row[static_cast<size_t>(j0)] =
          col_to_row[static_cast<size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  for (int32_t j = 1; j <= n; ++j) {
    const int32_t i = col_to_row[static_cast<size_t>(j)];
    if (i > 0) {
      out.row_to_col[static_cast<size_t>(i - 1)] = j - 1;
      out.cost += cost.at(i - 1, j - 1);
    }
  }
  return out;
}

/// Cost of the bipartite matrix's off-diagonal deletion/insertion cells.
constexpr double kForbidden = 1e9;

// ---------- Reference A* ----------

/// A partial map of the first `depth` g1 nodes (in search order).
struct ReferenceSearchState {
  double f = 0.0;  // g + h
  double g = 0.0;  // cost of the resolved part
  int32_t depth = 0;
  int64_t fully_used_edges2 = 0;  // g2 edges with both endpoints used
  std::vector<NodeId> images;     // images of search-order nodes [0, depth)

  bool operator>(const ReferenceSearchState& other) const {
    if (f != other.f) return f > other.f;
    return depth < other.depth;  // prefer deeper states on ties
  }
};

using ReferenceOpenList =
    std::priority_queue<ReferenceSearchState, std::vector<ReferenceSearchState>,
                        std::greater<ReferenceSearchState>>;

class ReferenceAStar {
 public:
  ReferenceAStar(const Graph& g1, const Graph& g2,
                 const ExactGedOptions& options)
      : g1_(g1), g2_(g2), options_(options) {
    // Process high-degree nodes first: their edge costs resolve earlier,
    // which tightens g and prunes faster.
    order_.resize(static_cast<size_t>(g1_.NumNodes()));
    for (NodeId v = 0; v < g1_.NumNodes(); ++v) {
      order_[static_cast<size_t>(v)] = v;
    }
    std::stable_sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
      return g1_.Degree(a) > g1_.Degree(b);
    });
    BuildSuffixTables();
  }

  Result<ExactGedResult> Run() {
    ReferenceOpenList open;
    {
      ReferenceSearchState root;
      root.f = Heuristic(root);
      open.push(std::move(root));
    }

    ExactGedResult result;
    const int32_t n1 = g1_.NumNodes();
    while (!open.empty()) {
      ReferenceSearchState state = open.top();
      open.pop();
      if (options_.upper_bound >= 0.0 &&
          state.f > options_.upper_bound + 1e-9) {
        // Every remaining completion costs more than the known achievable
        // upper bound, so the optimum is exactly that bound.
        result.distance = options_.upper_bound;
        result.expansions = expansions_;
        return result;
      }
      if (state.depth == n1) {
        result.distance = state.g;
        result.mapping = FinalMapping(state);
        result.expansions = expansions_;
        return result;
      }
      ++expansions_;
      if (options_.max_expansions > 0 &&
          expansions_ > options_.max_expansions) {
        return Status::Timeout("A* GED: expansion budget exhausted");
      }
      Expand(state, &open);
    }
    if (options_.upper_bound >= 0.0) {
      // All states were pruned against the bound: the optimum equals it.
      result.distance = options_.upper_bound;
      result.expansions = expansions_;
      return result;
    }
    return Status::Internal("A* GED: search space exhausted without goal");
  }

 private:
  void BuildSuffixTables() {
    const int32_t n1 = g1_.NumNodes();
    // suffix_label_hist_[d] = histogram of labels of order_[d..n1).
    suffix_label_hist_.assign(static_cast<size_t>(n1) + 1, {});
    for (int32_t d = n1 - 1; d >= 0; --d) {
      suffix_label_hist_[static_cast<size_t>(d)] =
          suffix_label_hist_[static_cast<size_t>(d) + 1];
      ++suffix_label_hist_[static_cast<size_t>(d)]
                          [g1_.label(order_[static_cast<size_t>(d)])];
    }
    // pos_in_order_[v] = search depth of g1 node v.
    pos_in_order_.assign(static_cast<size_t>(n1), 0);
    for (int32_t d = 0; d < n1; ++d) {
      pos_in_order_[static_cast<size_t>(order_[static_cast<size_t>(d)])] = d;
    }
    // suffix_edges1_[d] = #g1 edges with >=1 endpoint at depth >= d.
    suffix_edges1_.assign(static_cast<size_t>(n1) + 1, 0);
    for (const auto& [a, b] : g1_.Edges()) {
      const int32_t latest = std::max(pos_in_order_[static_cast<size_t>(a)],
                                      pos_in_order_[static_cast<size_t>(b)]);
      // Edge has an endpoint at depth >= d  iff  d <= latest.
      ++suffix_edges1_[0];
      --suffix_edges1_[static_cast<size_t>(latest) + 1];
    }
    for (int32_t d = 1; d <= n1; ++d) {
      suffix_edges1_[static_cast<size_t>(d)] +=
          suffix_edges1_[static_cast<size_t>(d) - 1];
    }
  }

  double Heuristic(const ReferenceSearchState& state) const {
    const int32_t n1 = g1_.NumNodes();
    const int32_t n2 = g2_.NumNodes();
    const int32_t remaining1 = n1 - state.depth;
    // Unused g2 labels.
    std::vector<bool> used(static_cast<size_t>(n2), false);
    for (NodeId v : state.images) {
      if (v != kEpsilon) used[static_cast<size_t>(v)] = true;
    }
    std::unordered_map<Label, int32_t> unused_hist;
    int32_t remaining2 = 0;
    for (NodeId v = 0; v < n2; ++v) {
      if (!used[static_cast<size_t>(v)]) {
        ++unused_hist[g2_.label(v)];
        ++remaining2;
      }
    }
    int64_t common = 0;
    const auto& suffix_hist =
        suffix_label_hist_[static_cast<size_t>(state.depth)];
    for (const auto& [label, count] : suffix_hist) {
      auto it = unused_hist.find(label);
      if (it != unused_hist.end()) {
        common += std::min(count, it->second);
      }
    }
    // Weighted admissible bound: each mismatched pair costs at least
    // min(relabel, delete+insert); each surplus node at least one
    // insert/delete; each surplus edge at least one edge op.
    const GedCosts& costs = options_.costs;
    const int64_t mismatched =
        std::min(remaining1, remaining2) >= common
            ? std::min(remaining1, remaining2) - common
            : 0;
    double h = static_cast<double>(mismatched) * costs.MinMismatchCost();
    if (remaining1 > remaining2) {
      h += (remaining1 - remaining2) * costs.node_delete;
    } else {
      h += (remaining2 - remaining1) * costs.node_insert;
    }
    const int64_t rem_edges1 = suffix_edges1_[static_cast<size_t>(state.depth)];
    const int64_t rem_edges2 = g2_.NumEdges() - state.fully_used_edges2;
    if (rem_edges1 > rem_edges2) {
      h += (rem_edges1 - rem_edges2) * costs.edge_delete;
    } else {
      h += (rem_edges2 - rem_edges1) * costs.edge_insert;
    }
    return h;
  }

  /// Cost delta of extending `state` by mapping the next g1 node to `v`
  /// (or ε), plus the bookkeeping for fully-used g2 edges.
  void Expand(const ReferenceSearchState& state, ReferenceOpenList* open) {
    const NodeId u = order_[static_cast<size_t>(state.depth)];
    const int32_t n2 = g2_.NumNodes();
    std::vector<bool> used(static_cast<size_t>(n2), false);
    // preimage-by-depth: g2 node -> search depth that used it.
    std::vector<int32_t> used_by(static_cast<size_t>(n2), -1);
    for (int32_t d = 0; d < state.depth; ++d) {
      const NodeId w = state.images[static_cast<size_t>(d)];
      if (w != kEpsilon) {
        used[static_cast<size_t>(w)] = true;
        used_by[static_cast<size_t>(w)] = d;
      }
    }

    // Substitution u -> v for every unused v, then deletion u -> ε.
    for (NodeId v = 0; v <= n2; ++v) {
      const bool is_epsilon = (v == n2);
      if (!is_epsilon && used[static_cast<size_t>(v)]) continue;

      const GedCosts& costs = options_.costs;
      double delta = 0.0;
      if (is_epsilon) {
        delta += costs.node_delete;
        // Every g1 edge from u to an already-mapped node is deleted.
        for (NodeId t : g1_.Neighbors(u)) {
          if (pos_in_order_[static_cast<size_t>(t)] < state.depth) {
            delta += costs.edge_delete;
          }
        }
      } else {
        if (g1_.label(u) != g2_.label(v)) delta += costs.node_relabel;
        // g1 edges (t, u) with t already mapped: matched or deleted.
        for (NodeId t : g1_.Neighbors(u)) {
          const int32_t dt = pos_in_order_[static_cast<size_t>(t)];
          if (dt >= state.depth) continue;
          const NodeId wt = state.images[static_cast<size_t>(dt)];
          if (wt == kEpsilon || !g2_.HasEdge(wt, v)) {
            delta += costs.edge_delete;
          }
        }
        // g2 edges (w, v) with w already used and no matching g1 edge:
        // insertions.
        for (NodeId w : g2_.Neighbors(v)) {
          const int32_t dw = used_by[static_cast<size_t>(w)];
          if (dw < 0) continue;
          const NodeId tw = order_[static_cast<size_t>(dw)];
          if (!g1_.HasEdge(tw, u)) delta += costs.edge_insert;
        }
      }

      ReferenceSearchState next;
      next.depth = state.depth + 1;
      next.images = state.images;
      next.images.push_back(is_epsilon ? kEpsilon : v);
      next.g = state.g + delta;
      next.fully_used_edges2 = state.fully_used_edges2;
      if (!is_epsilon) {
        for (NodeId w : g2_.Neighbors(v)) {
          if (used[static_cast<size_t>(w)]) ++next.fully_used_edges2;
        }
      }
      // Goal completion: charge insertions for everything never used.
      if (next.depth == g1_.NumNodes()) {
        int32_t used_count = 0;
        for (NodeId w : next.images) {
          if (w != kEpsilon) ++used_count;
        }
        next.g += (n2 - used_count) * options_.costs.node_insert;
        next.g += static_cast<double>(g2_.NumEdges() - next.fully_used_edges2) *
                  options_.costs.edge_insert;
        next.f = next.g;
      } else {
        next.f = next.g + Heuristic(next);
      }
      if (options_.upper_bound >= 0.0 && next.f > options_.upper_bound + 1e-9) {
        continue;
      }
      open->push(std::move(next));
    }
  }

  const Graph& g1_;
  const Graph& g2_;
  const ExactGedOptions& options_;
  std::vector<NodeId> order_;
  std::vector<int32_t> pos_in_order_;
  std::vector<std::unordered_map<Label, int32_t>> suffix_label_hist_;
  std::vector<int64_t> suffix_edges1_;
  int64_t expansions_ = 0;

  NodeMapping FinalMapping(const ReferenceSearchState& state) const {
    NodeMapping map;
    map.image.assign(static_cast<size_t>(g1_.NumNodes()), kEpsilon);
    for (int32_t d = 0; d < state.depth; ++d) {
      map.image[static_cast<size_t>(order_[static_cast<size_t>(d)])] =
          state.images[static_cast<size_t>(d)];
    }
    return map;
  }
};

Result<ExactGedResult> ReferenceExactGed(const Graph& g1, const Graph& g2,
                                         const ExactGedOptions& options) {
  if (g1.NumNodes() == 0) {
    // The only edit path inserts all of g2 (the root state would otherwise
    // be a goal without the completion charge).
    ExactGedResult r;
    r.distance = g2.NumNodes() * options.costs.node_insert +
                 g2.NumEdges() * options.costs.edge_insert;
    return r;
  }
  // Search from the smaller graph: shallower tree, same optimum (GED is
  // symmetric under uniform costs).
  if (g1.NumNodes() > g2.NumNodes()) {
    // Solving the reversed problem: deletions and insertions trade places.
    ExactGedOptions swapped_options = options;
    swapped_options.costs = options.costs.Swapped();
    LAN_ASSIGN_OR_RETURN(ExactGedResult swapped,
                         ReferenceExactGed(g2, g1, swapped_options));
    // A bound proven without a goal state comes with no mapping to invert.
    if (swapped.mapping.image.empty() && g2.NumNodes() > 0) return swapped;
    // Invert the mapping so it is expressed as g1 -> g2.
    NodeMapping inverted;
    inverted.image.assign(static_cast<size_t>(g1.NumNodes()), kEpsilon);
    for (NodeId u = 0; u < g2.NumNodes(); ++u) {
      const NodeId v = swapped.mapping.image[static_cast<size_t>(u)];
      if (v != kEpsilon) inverted.image[static_cast<size_t>(v)] = u;
    }
    swapped.mapping = std::move(inverted);
    return swapped;
  }
  ReferenceAStar search(g1, g2, options);
  return search.Run();
}

// ---------- Reference: bipartite matrices built per pair from two Graphs ----------

/// The Hungarian tier's matrix as it was built before prepared graphs:
/// every node's neighbour labels sorted per call, and one local edge cost
/// merge per substitution cell.
void ReferenceSortedNeighborLabels(const Graph& g, std::vector<Label>* labels,
                                   std::vector<int32_t>* offsets) {
  labels->clear();
  offsets->assign(1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const size_t begin = labels->size();
    for (NodeId t : g.Neighbors(v)) labels->push_back(g.label(t));
    std::sort(labels->begin() + static_cast<ptrdiff_t>(begin), labels->end());
    offsets->push_back(static_cast<int32_t>(labels->size()));
  }
}

double ReferenceLocalEdgeCost(const Label* lu, size_t nu, const Label* lv,
                              size_t nv) {
  size_t common = 0;
  size_t i = 0, j = 0;
  while (i < nu && j < nv) {
    if (lu[i] == lv[j]) {
      ++common;
      ++i;
      ++j;
    } else if (lu[i] < lv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return 0.5 * static_cast<double>(std::max(nu, nv) - common);
}

CostMatrix ReferenceBipartiteMatrix(const Graph& g1, const Graph& g2,
                                    bool with_local_edges,
                                    const GedCosts& costs) {
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  std::vector<Label> labels1, labels2;
  std::vector<int32_t> offsets1, offsets2;
  ReferenceSortedNeighborLabels(g1, &labels1, &offsets1);
  ReferenceSortedNeighborLabels(g2, &labels2, &offsets2);
  CostMatrix cost(n1 + n2, 0.0);
  for (int32_t i = 0; i < n1; ++i) {
    for (int32_t j = 0; j < n2; ++j) {
      const double edge_op = 0.5 * (costs.edge_delete + costs.edge_insert);
      double c = (g1.label(i) != g2.label(j)) ? costs.node_relabel : 0.0;
      if (with_local_edges) {
        c += edge_op * ReferenceLocalEdgeCost(
                           labels1.data() + offsets1[static_cast<size_t>(i)],
                           static_cast<size_t>(g1.Degree(i)),
                           labels2.data() + offsets2[static_cast<size_t>(j)],
                           static_cast<size_t>(g2.Degree(j)));
      } else {
        c += edge_op * 0.5 * std::abs(g1.Degree(i) - g2.Degree(j));
      }
      cost.at(i, j) = c;
    }
    for (int32_t j = 0; j < n1; ++j) {
      cost.at(i, n2 + j) =
          (i == j) ? costs.node_delete + 0.5 * g1.Degree(i) * costs.edge_delete
                   : 1e9;
    }
  }
  for (int32_t i = 0; i < n2; ++i) {
    for (int32_t j = 0; j < n2; ++j) {
      cost.at(n1 + i, j) =
          (i == j) ? costs.node_insert + 0.5 * g2.Degree(i) * costs.edge_insert
                   : 1e9;
    }
  }
  return cost;
}

/// The lower bounds as they were computed from two Graphs: sorted label
/// copies merged, and zero-padded degree sequences sorted descending.
double ReferenceBestLowerBound(const Graph& g1, const Graph& g2) {
  std::vector<Label> l1(g1.labels().begin(), g1.labels().end());
  std::vector<Label> l2(g2.labels().begin(), g2.labels().end());
  std::sort(l1.begin(), l1.end());
  std::sort(l2.begin(), l2.end());
  int64_t common = 0;
  for (size_t i = 0, j = 0; i < l1.size() && j < l2.size();) {
    if (l1[i] < l2[j]) {
      ++i;
    } else if (l2[j] < l1[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  const int64_t edge_diff = std::llabs(g1.NumEdges() - g2.NumEdges());
  const double label_lb = static_cast<double>(
      std::max<int64_t>(g1.NumNodes(), g2.NumNodes()) - common + edge_diff);
  const double size_lb = static_cast<double>(
      std::abs(g1.NumNodes() - g2.NumNodes()) + edge_diff);
  const size_t n =
      static_cast<size_t>(std::max(g1.NumNodes(), g2.NumNodes()));
  std::vector<int32_t> d1(n, 0), d2(n, 0);
  for (NodeId v = 0; v < g1.NumNodes(); ++v) d1[static_cast<size_t>(v)] = g1.Degree(v);
  for (NodeId v = 0; v < g2.NumNodes(); ++v) d2[static_cast<size_t>(v)] = g2.Degree(v);
  std::sort(d1.rbegin(), d1.rend());
  std::sort(d2.rbegin(), d2.rend());
  int64_t diff = 0;
  for (size_t i = 0; i < n; ++i) diff += std::abs(d1[i] - d2[i]);
  const double degree_lb = static_cast<double>(
      std::abs(g1.NumNodes() - g2.NumNodes()) + (diff + 1) / 2);
  return std::max({label_lb, size_lb, degree_lb});
}

// ---------- Fixtures ----------

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

struct NamedCosts {
  std::string name;
  GedCosts costs;
};

std::vector<NamedCosts> CostModels() {
  GedCosts weighted;
  weighted.node_insert = 1.5;
  weighted.node_delete = 1.5;
  weighted.node_relabel = 0.7;
  weighted.edge_insert = 0.3;
  weighted.edge_delete = 0.3;
  GedCosts asymmetric;
  asymmetric.node_insert = 0.9;
  asymmetric.node_delete = 2.3;
  asymmetric.node_relabel = 1.1;
  asymmetric.edge_insert = 0.35;
  asymmetric.edge_delete = 1.75;
  // Deletion and relabel cells at or just above the forbidden cells' cost:
  // exact ties with them and finite cells past them.
  GedCosts huge;
  huge.node_delete = kForbidden;
  huge.node_relabel = kForbidden;
  huge.edge_delete = 3.0;
  return {{"uniform", GedCosts::Uniform()},
          {"weighted", weighted},
          {"asymmetric", asymmetric},
          {"huge", huge}};
}

struct NamedPair {
  std::string name;
  Graph g1, g2;
};

/// Seeded AIDS-, SYN- and Linux-like pairs: independent draws, perturbed
/// copies (near ties), identical graphs (heavy ties), n1 > n2 and both
/// empty sides.
std::vector<NamedPair> Pairs() {
  std::vector<NamedPair> pairs;
  const std::pair<std::string, DatasetSpec> families[] = {
      {"aids", DatasetSpec::AidsLike(1)},
      {"syn", DatasetSpec::SynLike(1)},
      {"linux", DatasetSpec::LinuxLike(1)}};
  Rng rng(20221);
  for (const auto& [family, spec] : families) {
    for (int i = 0; i < 4; ++i) {
      Graph a = GenerateGraph(spec, &rng);
      Graph b = GenerateGraph(spec, &rng);
      if (a.NumNodes() < b.NumNodes()) std::swap(a, b);
      Graph near = PerturbGraph(a, 1 + i, spec.num_labels, &rng);
      const std::string tag = family + std::to_string(i);
      pairs.push_back({tag + "/larger_first", a, b});
      pairs.push_back({tag + "/smaller_first", b, a});
      pairs.push_back({tag + "/perturbed", a, near});
      pairs.push_back({tag + "/identical", a, a});
    }
    Graph g = GenerateGraph(spec, &rng);
    pairs.push_back({family + "/empty_first", Graph{}, g});
    pairs.push_back({family + "/empty_second", g, Graph{}});
  }
  pairs.push_back({"both_empty", Graph{}, Graph{}});
  Graph single;
  single.AddNode(0);
  pairs.push_back({"single_vs_single", single, single});
  return pairs;
}

/// SYN-like pairs of at most 8 nodes a side, where a search without an
/// upper bound still finishes: independent draws both ways round and
/// perturbed copies.
std::vector<NamedPair> SmallPairs() {
  DatasetSpec spec = DatasetSpec::SynLike(1);
  spec.avg_nodes = 6;
  spec.avg_edges = 8;
  std::vector<NamedPair> pairs;
  Rng rng(20224);
  while (pairs.size() < 12) {
    Graph a = GenerateGraph(spec, &rng);
    Graph b = GenerateGraph(spec, &rng);
    if (std::max(a.NumNodes(), b.NumNodes()) > 8) continue;
    if (a.NumNodes() < b.NumNodes()) std::swap(a, b);
    Graph near = PerturbGraph(a, 2, spec.num_labels, &rng);
    if (near.NumNodes() > 8) continue;
    const std::string tag = "small" + std::to_string(pairs.size() / 3);
    pairs.push_back({tag + "/larger_first", a, b});
    pairs.push_back({tag + "/smaller_first", b, a});
    pairs.push_back({tag + "/perturbed", a, near});
  }
  return pairs;
}

/// The SIMD levels the host supports, scalar first.
std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= DetectedSimdLevel()) levels.push_back(level);
  }
  return levels;
}

/// Runs `body` once per host level with dispatch pinned to it, then
/// restores the level that was active before.
template <typename Body>
void AtEveryLevel(Body body) {
  const SimdLevel saved = ActiveSimdLevel();
  for (SimdLevel level : HostLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    SetActiveSimdLevel(level);
    body(level);
    if (testing::Test::HasFatalFailure()) break;
  }
  SetActiveSimdLevel(saved);
}

// ---------- Tests ----------

TEST(GedTierEquivalenceTest, BeamMatchesReferenceBitForBit) {
  const std::vector<NamedPair> pairs = Pairs();
  int compared = 0;
  for (const NamedCosts& model : CostModels()) {
    for (const NamedPair& pair : pairs) {
      for (int width : {1, 4, 8, 16}) {
        const ApproxGedResult want =
            ReferenceBeamGed(pair.g1, pair.g2, width, model.costs);
        const ApproxGedResult got =
            BeamGed(pair.g1, pair.g2, width, model.costs);
        ASSERT_EQ(Bits(got.distance), Bits(want.distance))
            << model.name << " " << pair.name << " w=" << width << ": "
            << got.distance << " vs " << want.distance;
        ASSERT_EQ(got.mapping.image, want.mapping.image)
            << model.name << " " << pair.name << " w=" << width;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 500);
}

/// Runs a bipartite tier, then checks the assignment its solver returned
/// against `reference` on the very matrix the tier built (both left in the
/// thread's GedScratch).
template <typename Tier, typename Reference>
void ExpectSolverMatchesOnTierMatrices(Tier tier, Reference reference) {
  for (const NamedCosts& model : CostModels()) {
    for (const NamedPair& pair : Pairs()) {
      tier(pair.g1, pair.g2, model.costs);
      const GedScratch& s = ThreadGedScratch();
      const Assignment want = reference(s.cost_matrix);
      ASSERT_EQ(s.assignment.row_to_col, want.row_to_col)
          << model.name << " " << pair.name;
      ASSERT_EQ(Bits(s.assignment.cost), Bits(want.cost))
          << model.name << " " << pair.name;
    }
  }
}

TEST(GedTierEquivalenceTest, GreedyMatchesTupleSortOnVjMatrices) {
  ExpectSolverMatchesOnTierMatrices(
      [](const Graph& a, const Graph& b, const GedCosts& costs) {
        return BipartiteGedVj(a, b, costs);
      },
      ReferenceGreedy);
}

TEST(GedTierEquivalenceTest, JvMatchesReferenceOnHungarianMatrices) {
  AtEveryLevel([](SimdLevel) {
    ExpectSolverMatchesOnTierMatrices(
        [](const Graph& a, const Graph& b, const GedCosts& costs) {
          return BipartiteGedHungarian(a, b, costs);
        },
        ReferenceJv);
  });
}

TEST(GedTierEquivalenceTest, SolversMatchReferencesOnRandomMatrices) {
  // Few distinct values (heavy ties), forbidden cells, finite cells above
  // them, infinity (greedy only: JV needs finite costs), and signed zeros.
  const double values[] = {0.0,        -0.0,           0.5,
                           1.0,        1.0,            2.5,
                           kForbidden, kForbidden,     kForbidden + 1.0,
                           2 * kForbidden,
                           std::numeric_limits<double>::infinity()};
  const size_t num_values = sizeof(values) / sizeof(values[0]);
  Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    // Every size 0..40 (every tail width of an 8-column scan block) comes
    // up among the finite (even) trials.
    const int32_t n = trial % 41;
    // Draw from a prefix of `values`, so some matrices have no forbidden
    // cells and others are mostly forbidden.
    const bool finite = trial % 2 == 0;
    const size_t span = static_cast<size_t>(
        rng.NextInt(1, static_cast<int64_t>(num_values) - (finite ? 1 : 0)));
    CostMatrix m(n);
    for (int32_t r = 0; r < n; ++r) {
      for (int32_t c = 0; c < n; ++c) {
        m.at(r, c) = values[rng.NextBounded(span)];
      }
    }
    const Assignment greedy_want = ReferenceGreedy(m);
    const Assignment greedy_got = SolveAssignmentGreedy(m);
    ASSERT_EQ(greedy_got.row_to_col, greedy_want.row_to_col) << trial;
    ASSERT_EQ(Bits(greedy_got.cost), Bits(greedy_want.cost)) << trial;
    if (!finite) continue;
    const Assignment jv_want = ReferenceJv(m);
    AtEveryLevel([&](SimdLevel) {
      const Assignment jv_got = SolveAssignment(m);
      ASSERT_EQ(jv_got.row_to_col, jv_want.row_to_col) << trial;
      ASSERT_EQ(Bits(jv_got.cost), Bits(jv_want.cost)) << trial;
    });
    if (HasFatalFailure()) return;
  }
}

TEST(GedTierEquivalenceTest, JvMatchesReferenceOnRealValuedMatrices) {
  // Continuous costs: no ties, long augmenting paths, potentials that are
  // not exact in binary.
  Rng rng(11);
  for (int trial = 0; trial < 120; ++trial) {
    const int32_t n = 1 + trial % 40;
    CostMatrix m(n);
    for (int32_t r = 0; r < n; ++r) {
      for (int32_t c = 0; c < n; ++c) m.at(r, c) = rng.NextDouble() * 7.3;
    }
    const Assignment want = ReferenceJv(m);
    AtEveryLevel([&](SimdLevel) {
      const Assignment got = SolveAssignment(m);
      ASSERT_EQ(got.row_to_col, want.row_to_col) << trial;
      ASSERT_EQ(Bits(got.cost), Bits(want.cost)) << trial;
    });
    if (HasFatalFailure()) return;
  }
}

TEST(GedTierEquivalenceTest, ComputeIsBitwiseIdenticalAtEveryLevel) {
  // The full protocol (exact attempts capped at 1000 expansions), so each
  // value is a pure function of the pair and the level.
  const std::vector<NamedPair> pairs = Pairs();
  for (const NamedCosts& model : CostModels()) {
    GedOptions options;
    options.skip_exact_gap = 3.0;
    options.exact_max_expansions = 1'000;
    options.costs = model.costs;
    const GedComputer ged(options);
    std::vector<GedValue> scalar;
    AtEveryLevel([&](SimdLevel level) {
      for (size_t p = 0; p < pairs.size(); ++p) {
        const GedValue got = ged.Compute(pairs[p].g1, pairs[p].g2);
        if (level == SimdLevel::kScalar) {
          scalar.push_back(got);
          continue;
        }
        ASSERT_EQ(Bits(got.distance), Bits(scalar[p].distance))
            << model.name << " " << pairs[p].name << ": " << got.distance
            << " vs " << scalar[p].distance;
        ASSERT_EQ(got.method, scalar[p].method)
            << model.name << " " << pairs[p].name;
        ASSERT_EQ(got.exact, scalar[p].exact)
            << model.name << " " << pairs[p].name;
      }
    });
    if (HasFatalFailure()) return;
    EXPECT_EQ(scalar.size(), pairs.size());
    // The Hungarian tier's value reaches the result on some pairs.
    EXPECT_GT(std::count_if(scalar.begin(), scalar.end(),
                            [](const GedValue& v) {
                              return v.method == GedMethod::kHungarian;
                            }),
              0)
        << model.name;
  }
}


/// Pairs() plus many independent and perturbed AIDS-like and SYN-like
/// pairs, the regimes the index serves.
std::vector<NamedPair> ManyPairs() {
  std::vector<NamedPair> pairs = Pairs();
  Rng rng(20225);
  const std::pair<std::string, DatasetSpec> families[] = {
      {"aids", DatasetSpec::AidsLike(1)}, {"syn", DatasetSpec::SynLike(1)}};
  for (const auto& [family, spec] : families) {
    for (int i = 0; i < 60; ++i) {
      Graph a = GenerateGraph(spec, &rng);
      Graph b = GenerateGraph(spec, &rng);
      Graph near = PerturbGraph(a, 1 + i % 3, spec.num_labels, &rng);
      const std::string tag = family + "_many" + std::to_string(i);
      pairs.push_back({tag + "/independent", a, b});
      pairs.push_back({tag + "/perturbed", near, a});
    }
  }
  return pairs;
}

TEST(GedTierEquivalenceTest, PreparedTiersMatchPerPairMatrices) {
  // The Hungarian tier on prepared graphs (a table of local edge costs per
  // pair of neighbour-multiset classes) against the matrix built per pair
  // from two Graphs: equal matrix bits, assignment, mapping and distance.
  // VJ (whose matrix is built from the two Graphs) and the prepared lower
  // bounds likewise.
  const std::vector<NamedPair> pairs = ManyPairs();
  int compared = 0;
  AtEveryLevel([&](SimdLevel) {
    for (const NamedCosts& model : CostModels()) {
      for (const NamedPair& pair : pairs) {
        PreparedGraph p1, p2;
        PrepareGraph(pair.g1, &p1);
        PrepareGraph(pair.g2, &p2);
        for (bool hungarian : {true, false}) {
          const CostMatrix want_matrix = ReferenceBipartiteMatrix(
              pair.g1, pair.g2, hungarian, model.costs);
          const Assignment want_assignment =
              hungarian ? SolveAssignment(want_matrix)
                        : SolveAssignmentGreedy(want_matrix);
          NodeMapping want_mapping;
          want_mapping.image.assign(static_cast<size_t>(pair.g1.NumNodes()),
                                    kEpsilon);
          for (NodeId u = 0; u < pair.g1.NumNodes(); ++u) {
            const int32_t col =
                want_assignment.row_to_col[static_cast<size_t>(u)];
            if (col >= 0 && col < pair.g2.NumNodes()) {
              want_mapping.image[static_cast<size_t>(u)] = col;
            }
          }
          const double want_distance =
              MapCost(pair.g1, pair.g2, want_mapping, model.costs);

          ApproxGedResult got;
          if (hungarian) {
            BipartiteGedHungarianInto(pair.g1, p1, pair.g2, p2, model.costs,
                                      &got);
          } else {
            BipartiteGedVjInto(pair.g1, pair.g2, model.costs, &got);
          }
          const CostMatrix& got_matrix = ThreadGedScratch().cost_matrix;
          ASSERT_EQ(got_matrix.n(), want_matrix.n()) << pair.name;
          for (int32_t r = 0; r < want_matrix.n(); ++r) {
            for (int32_t c = 0; c < want_matrix.n(); ++c) {
              ASSERT_EQ(Bits(got_matrix.at(r, c)), Bits(want_matrix.at(r, c)))
                  << model.name << " " << pair.name << " cell " << r << ","
                  << c << (hungarian ? " hungarian" : " vj");
            }
          }
          ASSERT_EQ(got.mapping.image, want_mapping.image)
              << model.name << " " << pair.name;
          ASSERT_EQ(Bits(got.distance), Bits(want_distance))
              << model.name << " " << pair.name;
          // The Graph-only entry points agree.
          const ApproxGedResult plain =
              hungarian ? BipartiteGedHungarian(pair.g1, pair.g2, model.costs)
                        : BipartiteGedVj(pair.g1, pair.g2, model.costs);
          ASSERT_EQ(plain.mapping.image, want_mapping.image) << pair.name;
          ASSERT_EQ(Bits(plain.distance), Bits(want_distance)) << pair.name;
          ++compared;
        }
        const double want_lb = ReferenceBestLowerBound(pair.g1, pair.g2);
        ASSERT_EQ(Bits(BestLowerBound(p1, p2)), Bits(want_lb)) << pair.name;
        ASSERT_EQ(Bits(BestLowerBound(pair.g1, pair.g2)), Bits(want_lb))
            << pair.name;
      }
    }
  });
  EXPECT_GT(compared, 1000);
}

TEST(GedTierEquivalenceTest, PreparedComputeMatchesGraphCompute) {
  const std::vector<NamedPair> pairs = ManyPairs();
  for (const NamedCosts& model : CostModels()) {
    GedOptions options;
    options.exact_max_expansions = 1'000;
    options.costs = model.costs;
    const GedComputer ged(options);
    for (const NamedPair& pair : pairs) {
      PreparedGraph p1, p2;
      PrepareGraph(pair.g1, &p1);
      PrepareGraph(pair.g2, &p2);
      const GedValue plain = ged.Compute(pair.g1, pair.g2);
      const GedValue prepared = ged.Compute(pair.g1, p1, pair.g2, p2);
      ASSERT_EQ(Bits(prepared.distance), Bits(plain.distance))
          << model.name << " " << pair.name;
      ASSERT_EQ(prepared.method, plain.method) << pair.name;
      ASSERT_EQ(prepared.exact, plain.exact) << pair.name;
    }
  }
}

TEST(GedTierEquivalenceTest, ExactMatchesReferenceBitForBit) {
  // Both searches are pure functions of the pair, the bound and the cap. The bound is the best shipped tier's value, as
  // GedComputer seeds it; small pairs also run unbounded. The 10k cap runs
  // where the protocol would try A* (bound - lower bound <= 3) and on the
  // small pairs: elsewhere it only times out, after 10k reference
  // expansions.
  std::vector<NamedPair> pairs = Pairs();
  for (NamedPair& pair : SmallPairs()) pairs.push_back(std::move(pair));
  int compared = 0;
  int capped = 0;
  int unbounded = 0;
  int swapped = 0;
  int gated_large = 0;
  for (const NamedCosts& model : CostModels()) {
    for (const NamedPair& pair : pairs) {
      const double best = std::min(
          {BipartiteGedVj(pair.g1, pair.g2, model.costs).distance,
           BipartiteGedHungarian(pair.g1, pair.g2, model.costs).distance,
           BeamGed(pair.g1, pair.g2, 4, model.costs).distance});
      const bool small =
          std::max(pair.g1.NumNodes(), pair.g2.NumNodes()) <= 8;
      const GedCosts& c = model.costs;
      const double min_cost = std::min({c.node_insert, c.node_delete,
                                        c.node_relabel, c.edge_insert,
                                        c.edge_delete});
      const bool gated =
          best - BestLowerBound(pair.g1, pair.g2) * min_cost <= 3.0;
      if (gated && !small) ++gated_large;
      std::vector<double> bounds = {best};
      if (small) bounds.push_back(-1.0);
      for (double bound : bounds) {
        for (int64_t cap : {50, 500, 10'000}) {
          if (cap == 10'000 && !small && !gated) continue;
          ExactGedOptions options;
          options.max_expansions = cap;
          options.upper_bound = bound;
          options.costs = model.costs;
          const std::string where = model.name + " " + pair.name +
                                    " bound=" + std::to_string(bound) +
                                    " cap=" + std::to_string(cap);
          const Result<ExactGedResult> want =
              ReferenceExactGed(pair.g1, pair.g2, options);
          const Result<ExactGedResult> got =
              ExactGed(pair.g1, pair.g2, options);
          ASSERT_EQ(got.status().code(), want.status().code()) << where;
          ++compared;
          if (bound < 0.0) ++unbounded;
          if (pair.g1.NumNodes() > pair.g2.NumNodes()) ++swapped;
          if (!want.ok()) {
            ++capped;
            continue;
          }
          ASSERT_EQ(Bits(got->distance), Bits(want->distance))
              << where << ": " << got->distance << " vs " << want->distance;
          ASSERT_EQ(got->expansions, want->expansions) << where;
          ASSERT_EQ(got->mapping.image, want->mapping.image) << where;
        }
      }
    }
  }
  EXPECT_GT(compared, 800);
  EXPECT_GT(capped, 200);
  EXPECT_GT(unbounded, 150);
  EXPECT_GT(swapped, 200);
  EXPECT_GT(gated_large, 80);
}

}  // namespace
}  // namespace lan
