#ifndef LAN_GED_GED_LOWER_BOUNDS_H_
#define LAN_GED_GED_LOWER_BOUNDS_H_

#include "graph/graph.h"
#include "graph/prepared_graph.h"

namespace lan {

/// \brief Label-multiset lower bound on GED.
///
/// At least max(|V1|,|V2|) - |multiset-intersection of label multisets|
/// node operations are needed, plus at least ||E1|-|E2|| edge operations.
/// The two classes of operations are disjoint, so the sum is a valid lower
/// bound under uniform edit costs.
double LabelMultisetLowerBound(const Graph& g1, const Graph& g2);

/// \brief Size-only lower bound: ||V1|-|V2|| + ||E1|-|E2||.
double SizeLowerBound(const Graph& g1, const Graph& g2);

/// \brief Degree-sequence lower bound: pairs sorted degree sequences and
/// charges ceil(|d1-d2|/2)-ish edge work; conservative and cheap.
/// Always <= true GED.
double DegreeLowerBound(const Graph& g1, const Graph& g2);

/// Best (largest) of the cheap lower bounds.
double BestLowerBound(const Graph& g1, const Graph& g2);

/// The same best bound on prepared forms (it reads the sizes and the
/// sorted labels and degrees). Equal to the Graph overload, which prepares
/// the sorted facts on the fly.
double BestLowerBound(const PreparedGraph& p1, const PreparedGraph& p2);

}  // namespace lan

#endif  // LAN_GED_GED_LOWER_BOUNDS_H_
