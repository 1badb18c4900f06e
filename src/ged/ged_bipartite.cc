#include "ged/ged_bipartite.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/logging.h"
#include "ged/assignment.h"
#include "ged/ged_scratch.h"

namespace lan {
namespace {

constexpr double kForbidden = 1e9;

/// Local edge-structure substitution cost for mapping u (of g1) onto v
/// (of g2): the optimal cost of matching their incident edges, where an
/// incident edge is described by the label of its far endpoint (the
/// arguments are u's and v's sorted neighbour-label multisets). Edges
/// whose far labels cannot be paired each need one edit, shared between
/// two endpoints, so we charge half per endpoint.
double LocalEdgeCost(std::span<const Label> lu, std::span<const Label> lv) {
  const size_t nu = lu.size();
  const size_t nv = lv.size();
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
  const size_t unmatched = std::max(nu, nv) - common;
  return 0.5 * static_cast<double>(unmatched);
}

/// Re-dimensions the classical (n1+n2) square Riesen–Bunke matrix
///   [ substitution | deletion  ]
///   [ insertion    | zero      ]
/// in the scratch and fills everything but the substitution block, each
/// cell once.
void ResetWithDeletionInsertion(const Graph& g1, const Graph& g2,
                                const GedCosts& costs, CostMatrix* cost) {
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  cost->Resize(n1 + n2);
  for (int32_t i = 0; i < n1; ++i) {
    // Deletion of node i: the node plus half of each incident edge.
    double* row = cost->mutable_row(i) + n2;
    std::fill(row, row + n1, kForbidden);
    row[i] = costs.node_delete + 0.5 * g1.Degree(i) * costs.edge_delete;
  }
  for (int32_t i = 0; i < n2; ++i) {
    // Insertion of node i of g2, then the free epsilon -> epsilon corner.
    double* row = cost->mutable_row(n1 + i);
    std::fill(row, row + n2, kForbidden);
    row[i] = costs.node_insert + 0.5 * g2.Degree(i) * costs.edge_insert;
    std::fill(row + n2, row + n2 + n1, 0.0);
  }
}

/// The Hungarian tier's matrix: substitution cells charge the relabel
/// cost plus the local edge cost of the two nodes' neighbour multisets,
/// looked up in a per-pair table with one entry per pair of classes.
void BuildHungarianMatrix(const Graph& g1, const PreparedGraph& p1,
                          const Graph& g2, const PreparedGraph& p2,
                          const GedCosts& costs, GedScratch* s) {
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  const int32_t c2 = p2.NumClasses();
  const double edge_op = 0.5 * (costs.edge_delete + costs.edge_insert);
  std::vector<double>& table = s->class_costs;
  table.resize(static_cast<size_t>(p1.NumClasses()) * c2);
  for (int32_t a = 0; a < p1.NumClasses(); ++a) {
    for (int32_t b = 0; b < c2; ++b) {
      table[static_cast<size_t>(a) * c2 + b] =
          edge_op * LocalEdgeCost(p1.ClassLabels(a), p2.ClassLabels(b));
    }
  }
  CostMatrix& cost = s->cost_matrix;
  ResetWithDeletionInsertion(g1, g2, costs, &cost);
  for (int32_t i = 0; i < n1; ++i) {
    const Label li = g1.label(i);
    const double* row =
        table.data() +
        static_cast<size_t>(p1.node_class[static_cast<size_t>(i)]) * c2;
    for (int32_t j = 0; j < n2; ++j) {
      double c = (li != g2.label(j)) ? costs.node_relabel : 0.0;
      c += row[p2.node_class[static_cast<size_t>(j)]];
      cost.at(i, j) = c;
    }
  }
}

/// The VJ tier's matrix: a coarse degree-difference penalty instead of
/// local edge costs.
void BuildVjMatrix(const Graph& g1, const Graph& g2, const GedCosts& costs,
                   GedScratch* s) {
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  const double edge_op = 0.5 * (costs.edge_delete + costs.edge_insert);
  CostMatrix& cost = s->cost_matrix;
  ResetWithDeletionInsertion(g1, g2, costs, &cost);
  for (int32_t i = 0; i < n1; ++i) {
    for (int32_t j = 0; j < n2; ++j) {
      double c = (g1.label(i) != g2.label(j)) ? costs.node_relabel : 0.0;
      c += edge_op * 0.5 * std::abs(g1.Degree(i) - g2.Degree(j));
      cost.at(i, j) = c;
    }
  }
}

void FromAssignment(const Graph& g1, const Graph& g2,
                    const Assignment& assignment, const GedCosts& costs,
                    ApproxGedResult* result) {
  const int32_t n2 = g2.NumNodes();
  result->mapping.image.assign(static_cast<size_t>(g1.NumNodes()), kEpsilon);
  for (NodeId u = 0; u < g1.NumNodes(); ++u) {
    const int32_t col = assignment.row_to_col[static_cast<size_t>(u)];
    result->mapping.image[static_cast<size_t>(u)] =
        (col >= 0 && col < n2) ? col : kEpsilon;
  }
  LAN_DCHECK(result->mapping.IsValid(n2));
  // The assignment objective is only an estimate; the true upper bound is
  // the exact cost of the induced edit path.
  result->distance = MapCost(g1, g2, result->mapping, costs);
}

}  // namespace

void BipartiteGedHungarianInto(const Graph& g1, const PreparedGraph& p1,
                               const Graph& g2, const PreparedGraph& p2,
                               const GedCosts& costs, ApproxGedResult* out) {
  GedScratch& s = ThreadGedScratch();
  BuildHungarianMatrix(g1, p1, g2, p2, costs, &s);
  SolveAssignmentInto(s.cost_matrix, &s.assignment);
  FromAssignment(g1, g2, s.assignment, costs, out);
}

void BipartiteGedHungarianInto(const Graph& g1, const Graph& g2,
                               const GedCosts& costs, ApproxGedResult* out) {
  // The tier reads only the classes.
  GedScratch& s = ThreadGedScratch();
  PrepareClasses(g1, &s.prepared1);
  PrepareClasses(g2, &s.prepared2);
  BipartiteGedHungarianInto(g1, s.prepared1, g2, s.prepared2, costs, out);
}

ApproxGedResult BipartiteGedHungarian(const Graph& g1, const Graph& g2,
                                      const GedCosts& costs) {
  ApproxGedResult result;
  BipartiteGedHungarianInto(g1, g2, costs, &result);
  return result;
}

void BipartiteGedVjInto(const Graph& g1, const Graph& g2,
                        const GedCosts& costs, ApproxGedResult* out) {
  // The VJ flavor trades matrix quality for speed: cheap substitution
  // costs and the greedy solver. It reads only labels and degrees, so it
  // needs no prepared form.
  GedScratch& s = ThreadGedScratch();
  BuildVjMatrix(g1, g2, costs, &s);
  SolveAssignmentGreedyInto(s.cost_matrix, &s.assignment);
  FromAssignment(g1, g2, s.assignment, costs, out);
}

ApproxGedResult BipartiteGedVj(const Graph& g1, const Graph& g2,
                               const GedCosts& costs) {
  ApproxGedResult result;
  BipartiteGedVjInto(g1, g2, costs, &result);
  return result;
}

}  // namespace lan
