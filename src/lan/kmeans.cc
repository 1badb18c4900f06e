#include "lan/kmeans.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "gnn/embedding.h"

namespace lan {
namespace {

double Sq(std::span<const float> a, std::span<const float> b) {
  return SquaredL2(a, b);
}

}  // namespace

void KMeansResult::RebuildMembers(int32_t num_clusters) {
  members.assign(static_cast<size_t>(num_clusters), {});
  for (size_t i = 0; i < assignment.size(); ++i) {
    members[static_cast<size_t>(assignment[i])].push_back(
        static_cast<int32_t>(i));
  }
}

KMeansResult KMeans(const EmbeddingMatrix& points, int num_clusters,
                    int max_iterations, Rng* rng) {
  LAN_CHECK(!points.empty());
  LAN_CHECK_GT(num_clusters, 0);
  const size_t n = static_cast<size_t>(points.rows());
  const size_t k = std::min(static_cast<size_t>(num_clusters), n);
  const int32_t dim = points.dim();

  KMeansResult result;
  result.centroids = EmbeddingMatrix(0, dim);
  result.centroids.Reserve(static_cast<int64_t>(k), dim);
  // kmeans++ seeding.
  result.centroids.AppendRow(
      points.Row(static_cast<int64_t>(rng->NextBounded(n))));
  std::vector<double> min_sq(n, std::numeric_limits<double>::infinity());
  while (result.centroids.rows() < static_cast<int64_t>(k)) {
    const std::span<const float> last =
        result.centroids.Row(result.centroids.rows() - 1);
    for (size_t i = 0; i < n; ++i) {
      min_sq[i] =
          std::min(min_sq[i], Sq(points.Row(static_cast<int64_t>(i)), last));
    }
    double total = 0.0;
    for (double d : min_sq) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; fill with copies.
      result.centroids.AppendRow(
          points.Row(static_cast<int64_t>(rng->NextBounded(n))));
      continue;
    }
    double r = rng->NextDouble() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      r -= min_sq[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    result.centroids.AppendRow(points.Row(static_cast<int64_t>(chosen)));
  }

  const size_t num_centroids = static_cast<size_t>(result.centroids.rows());
  result.assignment.assign(n, 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    // Assign — the O(n * k * dim) hot loop.
    for (size_t i = 0; i < n; ++i) {
      const int32_t best = NearestCentroid(
          result.centroids, points.Row(static_cast<int64_t>(i)));
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    const size_t dims = static_cast<size_t>(dim);
    std::vector<std::vector<double>> sums(num_centroids,
                                          std::vector<double>(dims, 0.0));
    std::vector<int64_t> counts(num_centroids, 0);
    for (size_t i = 0; i < n; ++i) {
      const int32_t c = result.assignment[i];
      ++counts[static_cast<size_t>(c)];
      const std::span<const float> row = points.Row(static_cast<int64_t>(i));
      for (size_t j = 0; j < dims; ++j) {
        sums[static_cast<size_t>(c)][j] += row[j];
      }
    }
    for (size_t c = 0; c < num_centroids; ++c) {
      if (counts[c] == 0) continue;  // keep empty centroid in place
      float* row = result.centroids.MutableRow(static_cast<int64_t>(c));
      for (size_t j = 0; j < dims; ++j) {
        row[j] =
            static_cast<float>(sums[c][j] / static_cast<double>(counts[c]));
      }
    }
    if (!changed && iter > 0) break;
  }
  result.members.assign(num_centroids, {});
  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t c = result.assignment[i];
    result.members[static_cast<size_t>(c)].push_back(static_cast<int32_t>(i));
    result.inertia += Sq(points.Row(static_cast<int64_t>(i)),
                         result.centroids.Row(static_cast<int64_t>(c)));
  }
  return result;
}

int32_t NearestCentroid(const EmbeddingMatrix& centroids,
                        std::span<const float> point) {
  LAN_CHECK(!centroids.empty());
  int32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int64_t c = 0; c < centroids.rows(); ++c) {
    const double d = Sq(point, centroids.Row(c));
    if (d < best_d) {
      best_d = d;
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

}  // namespace lan
