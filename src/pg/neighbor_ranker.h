#ifndef LAN_PG_NEIGHBOR_RANKER_H_
#define LAN_PG_NEIGHBOR_RANKER_H_

#include <memory>
#include <span>
#include <vector>

#include "pg/distance.h"
#include "pg/proximity_graph.h"

namespace lan {

/// \brief Ranks the PG neighbors of a node into distance-ordered batches
/// of roughly y% each (Sec. IV): batch 0 should hold the neighbors closest
/// to the query. np_route opens batches in order and prunes the rest.
///
/// Implementations must NOT charge distance computations to the query's
/// NDC (the oracle assumption of Sec. IV-A; the learned ranker's cost is
/// model inference, counted separately).
///
/// Batches are written into a caller-owned flat RankedBatches: np_route
/// passes its per-thread batch arena, so a ranker that only copies ids
/// (the learned ranker on a cache hit) allocates nothing once the arena
/// has grown.
class NeighborRanker {
 public:
  virtual ~NeighborRanker() = default;

  /// Partitions Neighbors(node) into batches, best first, and appends them
  /// to `out` (the caller's buffer; what it already holds stays as is).
  /// Batches must be non-empty and jointly contain every neighbor exactly
  /// once.
  virtual void RankNeighbors(const ProximityGraph& pg, GraphId node,
                             const Graph& query, RankedBatches* out) = 0;
};

/// \brief The oracle ranker of Sec. IV-A: batches by true distance to the
/// query. Used for the Theorem 1 equivalence analysis and as the skyline
/// in ablation benches. Distances are computed with a private GedComputer
/// and never counted toward the query's NDC.
class OracleRanker : public NeighborRanker {
 public:
  /// `batch_percent` = the paper's y (0 < y <= 100).
  OracleRanker(const GraphDatabase* db, const GedComputer* ged,
               int batch_percent);

  void RankNeighbors(const ProximityGraph& pg, GraphId node,
                     const Graph& query, RankedBatches* out) override;

 private:
  const GraphDatabase* db_;
  const GedComputer* ged_;
  int batch_percent_;
};

/// Splits an already-ranked list into batches of y% and appends them to
/// `out`. Batch size = ceil(count * y / 100), at least 1.
void SplitIntoBatches(std::span<const GraphId> ranked, int batch_percent,
                      RankedBatches* out);

}  // namespace lan

#endif  // LAN_PG_NEIGHBOR_RANKER_H_
