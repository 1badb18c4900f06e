#include "ged/ged_computer.h"

#include <algorithm>

#include "common/thread_pool.h"
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

GedValue GedComputer::Compute(const Graph& g1, const Graph& g2,
                              ThreadPool* pool) const {
  GedScratch& s = ThreadGedScratch();
  PrepareGraph(g1, &s.prepared1);
  PrepareGraph(g2, &s.prepared2);
  return Compute(g1, s.prepared1, g2, s.prepared2, pool);
}

GedValue GedComputer::Compute(const Graph& g1, const PreparedGraph& p1,
                              const Graph& g2, const PreparedGraph& p2,
                              ThreadPool* pool) const {
  // Approximate upper bounds (also used to prune the exact search). Each
  // tier writes only its own result in the calling thread's scratch and
  // works in the scratch of the thread it runs on, so the tiers may run
  // concurrently; steady state, none of them allocates. Hungarian, the
  // longest, goes first so that it starts at once.
  GedScratch& s = ThreadGedScratch();
  const size_t tiers = options_.beam_width > 0 ? 3 : 2;
  ParallelFor(pool, tiers, [&](size_t tier) {
    switch (tier) {
      case 0:
        BipartiteGedHungarianInto(g1, p1, g2, p2, options_.costs,
                                  &s.hung_result);
        break;
      case 1:
        BipartiteGedVjInto(g1, g2, options_.costs, &s.vj_result);
        break;
      default:
        BeamGedInto(g1, g2, options_.beam_width, options_.costs,
                    &s.beam_result);
        break;
    }
  });

  // The smallest upper bound; an earlier tier wins ties.
  GedValue best;
  best.distance = s.vj_result.distance;
  best.method = GedMethod::kVj;
  best.exact = false;
  if (s.hung_result.distance < best.distance) {
    best.distance = s.hung_result.distance;
    best.method = GedMethod::kHungarian;
  }
  if (tiers == 3 && s.beam_result.distance < best.distance) {
    best.distance = s.beam_result.distance;
    best.method = GedMethod::kBeam;
  }

  bool try_exact = !options_.approximate_only;
  if (try_exact && options_.skip_exact_gap >= 0.0) {
    // The cheap lower bounds count operations; scaling by the cheapest
    // per-operation cost keeps the bound sound under weighted models.
    const double min_cost = std::min(
        {options_.costs.node_insert, options_.costs.node_delete,
         options_.costs.node_relabel, options_.costs.edge_insert,
         options_.costs.edge_delete});
    if (best.distance - BestLowerBound(p1, p2) * min_cost >
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
