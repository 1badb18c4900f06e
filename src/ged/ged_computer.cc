#include "ged/ged_computer.h"

#include <algorithm>

#include "common/logging.h"
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
  const GedTarget target{&g2, &p2};
  GedValue value;
  ComputeBatch(g1, p1, {&target, 1}, pool, {&value, 1});
  return value;
}

void GedComputer::ComputeBatch(const Graph& g1, const PreparedGraph& p1,
                               std::span<const GedTarget> targets,
                               ThreadPool* pool,
                               std::span<GedValue> out) const {
  LAN_CHECK_EQ(out.size(), targets.size());
  const size_t m = targets.size();
  if (m == 0) return;
  // Approximate upper bounds (also used to prune the exact search). Item
  // tier * m + i runs tier `tier` of pair i, tiers ordered Hungarian, Beam,
  // VJ (longest first, so the long items start at once and the short ones
  // fill in behind them). An item works in the scratch of the thread it
  // runs on and writes only its own slot of the calling thread's
  // `tier_distances`, so the items may run concurrently; steady state, none
  // of them allocates.
  GedScratch& s = ThreadGedScratch();
  const bool beam = options_.beam_width > 0;
  const size_t tiers = beam ? 3 : 2;
  s.tier_distances.resize(tiers * m);
  double* const upper = s.tier_distances.data();
  ParallelFor(pool, tiers * m, [&](size_t item) {
    const size_t tier = item / m;
    const GedTarget& t = targets[item % m];
    ApproxGedResult* result = &ThreadGedScratch().tier_result;
    if (tier == 0) {
      BipartiteGedHungarianInto(g1, p1, *t.graph, *t.prepared, options_.costs,
                                result);
    } else if (tier + 1 < tiers) {
      BeamGedInto(g1, *t.graph, options_.beam_width, options_.costs, result);
    } else {
      BipartiteGedVjInto(g1, *t.graph, options_.costs, result);
    }
    upper[item] = result->distance;
  });

  // The cheap lower bounds count operations; scaling by the cheapest
  // per-operation cost keeps the bound sound under weighted models.
  const double min_cost = std::min(
      {options_.costs.node_insert, options_.costs.node_delete,
       options_.costs.node_relabel, options_.costs.edge_insert,
       options_.costs.edge_delete});
  for (size_t i = 0; i < m; ++i) {
    // The smallest upper bound; VJ, then Hungarian, then Beam win ties.
    GedValue best;
    best.distance = upper[(tiers - 1) * m + i];
    best.method = GedMethod::kVj;
    best.exact = false;
    if (upper[i] < best.distance) {
      best.distance = upper[i];
      best.method = GedMethod::kHungarian;
    }
    if (beam && upper[m + i] < best.distance) {
      best.distance = upper[m + i];
      best.method = GedMethod::kBeam;
    }

    bool try_exact = !options_.approximate_only;
    if (try_exact && options_.skip_exact_gap >= 0.0 &&
        best.distance - BestLowerBound(p1, *targets[i].prepared) * min_cost >
            options_.skip_exact_gap) {
      try_exact = false;
    }
    if (try_exact) {
      ExactGedOptions exact_options;
      exact_options.max_expansions = options_.exact_max_expansions;
      exact_options.upper_bound = best.distance;
      exact_options.costs = options_.costs;
      // The attempt's buffers are disjoint from tier_distances.
      double exact = 0.0;
      if (ExactGedDistance(g1, *targets[i].graph, exact_options, &s,
                           &exact)) {
        best.distance = exact;
        best.method = GedMethod::kExact;
        best.exact = true;
      }
    }
    out[i] = best;
  }
}

}  // namespace lan
