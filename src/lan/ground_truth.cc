#include "lan/ground_truth.h"

#include <algorithm>

#include "common/logging.h"

namespace lan {

std::vector<double> ComputeAllDistances(const GraphDatabase& db,
                                        const Graph& query,
                                        const GedComputer& ged,
                                        ThreadPool* pool) {
  std::vector<double> distances(static_cast<size_t>(db.size()));
  auto work = [&](size_t i) {
    distances[i] = ged.Distance(query, db.Get(static_cast<GraphId>(i)));
  };
  ParallelFor(pool, distances.size(), work);
  return distances;
}

KnnList ComputeGroundTruth(const GraphDatabase& db, const Graph& query, int k,
                           const GedComputer& ged, ThreadPool* pool) {
  LAN_CHECK_GT(k, 0);
  const std::vector<double> distances =
      ComputeAllDistances(db, query, ged, pool);
  KnnList all;
  all.reserve(distances.size());
  for (size_t i = 0; i < distances.size(); ++i) {
    all.emplace_back(static_cast<GraphId>(i), distances[i]);
  }
  const size_t keep = std::min(all.size(), static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second < b.second;
                      return a.first < b.first;
                    });
  all.resize(keep);
  return all;
}

double RecallAtK(const KnnList& result, const KnnList& truth, int k) {
  LAN_CHECK_GT(k, 0);
  if (truth.empty()) return result.empty() ? 1.0 : 0.0;
  const size_t kk = static_cast<size_t>(k);
  // Distance ties make id-set comparison unfair; credit any returned id
  // whose distance is within the k-th true distance.
  const size_t truth_k = std::min(truth.size(), kk);
  const double kth = truth[truth_k - 1].second;
  int64_t hits = 0;
  const size_t result_k = std::min(result.size(), kk);
  for (size_t i = 0; i < result_k; ++i) {
    if (result[i].second <= kth + 1e-9) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace lan
