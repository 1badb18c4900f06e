#ifndef LAN_GED_GED_BIPARTITE_H_
#define LAN_GED_GED_BIPARTITE_H_

#include "ged/node_mapping.h"
#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

/// \brief Outcome of an approximate GED computation: the distance is the
/// exact cost of `mapping`, which is an upper bound of the true GED.
struct ApproxGedResult {
  double distance = 0.0;
  NodeMapping mapping;
};

/// \brief Bipartite GED in the style of Riesen & Bunke ("Hung" in the
/// paper's ground-truth protocol).
///
/// Builds an (n1+n2) x (n1+n2) cost matrix whose substitution entries
/// include an optimal local assignment of incident-edge structures, solves
/// it optimally, and returns the exact cost of the induced node map.
ApproxGedResult BipartiteGedHungarian(
    const Graph& g1, const Graph& g2,
    const GedCosts& costs = GedCosts::Uniform());

/// Allocation-free variant: writes into `out` (reusing its mapping's
/// capacity) and draws all working storage from the thread's GedScratch.
/// Prepares both graphs on the fly (see the prepared overload).
void BipartiteGedHungarianInto(const Graph& g1, const Graph& g2,
                               const GedCosts& costs, ApproxGedResult* out);

/// The same tier on graphs prepared ahead of time (`p1` = PrepareGraph of
/// `g1`, `p2` of `g2`): the substitution block comes from a table of local
/// edge costs over pairs of neighbour-multiset classes. Same bits as the
/// Graph-only overload.
void BipartiteGedHungarianInto(const Graph& g1, const PreparedGraph& p1,
                               const Graph& g2, const PreparedGraph& p2,
                               const GedCosts& costs, ApproxGedResult* out);

/// \brief Faster bipartite GED ("VJ" in the paper's protocol, after
/// Fankhauser et al.): same framework with cheap degree-difference
/// substitution costs instead of local edge assignments.
ApproxGedResult BipartiteGedVj(const Graph& g1, const Graph& g2,
                               const GedCosts& costs = GedCosts::Uniform());

/// Allocation-free variant of the VJ flavor (see BipartiteGedHungarianInto).
void BipartiteGedVjInto(const Graph& g1, const Graph& g2,
                        const GedCosts& costs, ApproxGedResult* out);

}  // namespace lan

#endif  // LAN_GED_GED_BIPARTITE_H_
