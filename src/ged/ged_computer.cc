#include "ged/ged_computer.h"

#include <algorithm>

#include "ged/ged_beam.h"
#include "ged/ged_lower_bounds.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_scratch.h"

namespace lan {

const char* GedMethodName(GedMethod method) {
  switch (method) {
    case GedMethod::kExact:
      return "Exact";
    case GedMethod::kVj:
      return "VJ";
    case GedMethod::kHungarian:
      return "Hung";
    case GedMethod::kBeam:
      return "Beam";
  }
  return "?";
}

GedValue GedComputer::Compute(const Graph& g1, const Graph& g2) const {
  // Approximate upper bounds (also used to prune the exact search). The
  // results live in the thread's scratch, so the approximate tiers
  // allocate nothing in the steady state.
  GedScratch& s = ThreadGedScratch();
  BipartiteGedVjInto(g1, g2, options_.costs, &s.vj_result);
  BipartiteGedHungarianInto(g1, g2, options_.costs, &s.hung_result);
  const ApproxGedResult& vj = s.vj_result;
  const ApproxGedResult& hung = s.hung_result;

  GedValue best;
  best.distance = vj.distance;
  best.method = GedMethod::kVj;
  best.exact = false;
  if (hung.distance < best.distance) {
    best.distance = hung.distance;
    best.method = GedMethod::kHungarian;
  }
  if (options_.beam_width > 0) {
    BeamGedInto(g1, g2, options_.beam_width, options_.costs, &s.beam_result);
    if (s.beam_result.distance < best.distance) {
      best.distance = s.beam_result.distance;
      best.method = GedMethod::kBeam;
    }
  }

  bool try_exact = !options_.approximate_only;
  if (try_exact && options_.skip_exact_gap >= 0.0) {
    // The cheap lower bounds count operations; scaling by the cheapest
    // per-operation cost keeps the bound sound under weighted models.
    const double min_cost = std::min(
        {options_.costs.node_insert, options_.costs.node_delete,
         options_.costs.node_relabel, options_.costs.edge_insert,
         options_.costs.edge_delete});
    if (best.distance - BestLowerBound(g1, g2) * min_cost >
        options_.skip_exact_gap) {
      try_exact = false;
    }
  }
  if (try_exact) {
    ExactGedOptions exact_options;
    exact_options.max_expansions = options_.exact_max_expansions;
    exact_options.upper_bound = best.distance;
    exact_options.costs = options_.costs;
    // The attempt's buffers are disjoint from vj_result/hung_result.
    double exact = 0.0;
    if (ExactGedDistance(g1, g2, exact_options, &s, &exact)) {
      best.distance = exact;
      best.method = GedMethod::kExact;
      best.exact = true;
    }
  }
  return best;
}

}  // namespace lan
