#ifndef LAN_GED_GED_BEAM_H_
#define LAN_GED_GED_BEAM_H_

#include "ged/ged_bipartite.h"
#include "graph/graph.h"

namespace lan {

/// \brief Suboptimal GED by beam search over the A* map tree ("Beam" of
/// Neuhaus, Riesen & Bunke): at each depth only the `beam_width` cheapest
/// partial maps survive. Returns the exact cost of the best complete map
/// found, a valid upper bound of the true GED. `beam_width` >= 1.
ApproxGedResult BeamGed(const Graph& g1, const Graph& g2, int beam_width,
                        const GedCosts& costs = GedCosts::Uniform());

/// Allocation-free variant: writes into `out` (reusing its mapping's
/// capacity) and keeps the beam in the thread's GedScratch.
void BeamGedInto(const Graph& g1, const Graph& g2, int beam_width,
                 const GedCosts& costs, ApproxGedResult* out);

}  // namespace lan

#endif  // LAN_GED_GED_BEAM_H_
