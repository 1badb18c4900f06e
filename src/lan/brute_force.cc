#include "lan/brute_force.h"

#include <algorithm>

namespace lan {

SearchResult BruteForceIndex::Search(const Graph& query, int k) const {
  SearchResult out;
  DistanceOracle oracle(this, db_, QueryContext{}, &query, &out.stats);
  KnnList all;
  all.reserve(static_cast<size_t>(db_->size()));
  for (GraphId id = 0; id < db_->size(); ++id) {
    all.emplace_back(id, oracle.Distance(id));
  }
  const size_t keep = std::min(all.size(), static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second < b.second;
                      return a.first < b.first;
                    });
  all.resize(keep);
  out.results = std::move(all);
  return out;
}

KnnList RefineTopK(const GraphDatabase& db, const Graph& query,
                   const KnnList& results, const GedOptions& refine_options,
                   SearchStats* stats) {
  GedComputer refined_ged(refine_options);
  KnnList refined;
  refined.reserve(results.size());
  for (const auto& [id, coarse] : results) {
    const double d = refined_ged.Distance(query, db.Get(id));
    if (stats != nullptr) ++stats->ndc;
    refined.emplace_back(id, d);
  }
  std::sort(refined.begin(), refined.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  return refined;
}

}  // namespace lan
