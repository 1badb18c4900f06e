#ifndef LAN_GNN_EMBEDDING_H_
#define LAN_GNN_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/embedding_matrix.h"
#include "graph/graph_database.h"

namespace lan {

/// \brief Options for the training-free whole-graph embedding.
struct EmbeddingOptions {
  /// Output dimensionality (features are hash-folded to this size).
  int32_t dim = 64;
  /// Label alphabet size of the database.
  int32_t num_labels = 1;
  /// WL refinement rounds whose label histograms are folded in.
  int wl_rounds = 2;
};

/// \brief Deterministic whole-graph feature vector (1 x dim) used for
/// KMeans clustering (Sec. V-B2 uses node2vec; this is our training-free
/// substitution, see DESIGN.md) and for the L2route baseline's embedding
/// space.
///
/// Features: raw-label histogram, degree histogram, size statistics, and
/// hashed WL-label histograms — all L2-comparable proxies for structural
/// similarity.
std::vector<float> EmbedGraph(const Graph& g, const EmbeddingOptions& options);

/// Embeds every graph of the database into one row-major matrix; row i is
/// graph i's options.dim-float embedding.
EmbeddingMatrix EmbedDatabase(const GraphDatabase& db,
                              const EmbeddingOptions& options);

/// Squared L2 distance between two equal-length vectors.
double SquaredL2(std::span<const float> a, std::span<const float> b);

}  // namespace lan

#endif  // LAN_GNN_EMBEDDING_H_
