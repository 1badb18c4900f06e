#ifndef LAN_LAN_KMEANS_H_
#define LAN_LAN_KMEANS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "gnn/embedding_matrix.h"

namespace lan {

/// \brief KMeans clustering result over embedding vectors.
struct KMeansResult {
  /// Row c is centroid c (input dimensionality).
  EmbeddingMatrix centroids;
  /// assignment[i] = cluster of input point i.
  std::vector<int32_t> assignment;
  /// members[c] = point indices of cluster c.
  std::vector<std::vector<int32_t>> members;
  double inertia = 0.0;  // sum of squared distances to assigned centroids

  /// Rebuilds `members` from `assignment` (ascending point order per
  /// cluster, matching what KMeans itself produces).
  void RebuildMembers(int32_t num_clusters);
};

/// \brief Lloyd's algorithm with kmeans++ seeding (the clustering step of
/// the optimized M_nh design, Sec. V-B2). `points` rows are the inputs.
KMeansResult KMeans(const EmbeddingMatrix& points, int num_clusters,
                    int max_iterations, Rng* rng);

/// \brief Index of the centroid (matrix row) closest in squared L2 to
/// `point`. Used to assign online-inserted graphs to an existing
/// clustering without re-running KMeans. `centroids` must be non-empty.
int32_t NearestCentroid(const EmbeddingMatrix& centroids,
                        std::span<const float> point);

}  // namespace lan

#endif  // LAN_LAN_KMEANS_H_
