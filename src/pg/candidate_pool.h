#ifndef LAN_PG_CANDIDATE_POOL_H_
#define LAN_PG_CANDIDATE_POOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "pg/search_scratch.h"

namespace lan {

/// \brief The candidate pool W of Algorithms 1 and 2: a set of (distance,
/// node) pairs ordered ascending by distance with the paper's tie-break
/// rules (unexplored before explored; among unexplored, smaller id first;
/// among explored, the more recently explored first). Resize(b) keeps the
/// best b candidates.
///
/// Every query below answers from the set alone, independent of the order
/// of the backing vector, and that order is unspecified after Resize.
/// Membership is the RouteStateArray's "in W" mark, so Add and Contains
/// are O(1).
///
/// Exploration state and entry storage are donated by the caller (normally
/// a SearchScratch), so constructing a pool per query allocates nothing.
class CandidatePool {
 public:
  /// `states` and `entries` must outlive the pool; `states` must be Reset
  /// to cover every id added. `entries` is cleared (its capacity is the
  /// reuse) and used as the pool's backing storage, and the pool starts
  /// empty: the states' "in W" marks are cleared too.
  CandidatePool(RouteStateArray* states, std::vector<PoolEntry>* entries)
      : states_(states), entries_(entries) {
    entries_->clear();
    states_->ClearPool();
  }

  /// Inserts (id, distance); no-op if the id is already present.
  void Add(GraphId id, double distance) {
    if (states_->InPool(id)) return;
    states_->SetInPool(id, true);
    entries_->push_back(PoolEntry{id, distance});
  }

  /// Trims to the best `beam_size` entries under the priority order, by
  /// partial selection: the kept set is the one a full sort would keep.
  void Resize(int beam_size);

  bool Contains(GraphId id) const { return states_->InPool(id); }

  /// Smallest-distance unexplored entry (ties: smaller id); kInvalidGraphId
  /// if none.
  GraphId BestUnexplored() const;

  /// Smallest-distance unexplored entry with distance <= gamma;
  /// kInvalidGraphId if none.
  GraphId BestUnexploredWithin(double gamma) const;

  /// Best entry overall under the full priority order; kInvalidGraphId if
  /// the pool is empty.
  GraphId Best() const;

  bool AllExplored() const;

  double DistanceOf(GraphId id) const;

  /// Top-k entries by (distance, id) appended into `out` (cleared first);
  /// may produce fewer than k. `sort_buf` is working storage (normally the
  /// scratch's). `live` (optional, indexed by GraphId) filters tombstoned
  /// ids out of the answers — dead nodes stay in the pool for navigation
  /// but are never returned.
  void TopKInto(int k, const std::vector<uint8_t>* live,
                std::vector<PoolEntry>* sort_buf,
                std::vector<std::pair<GraphId, double>>* out) const;

  /// Allocating convenience wrapper around TopKInto.
  std::vector<std::pair<GraphId, double>> TopK(
      int k, const std::vector<uint8_t>* live = nullptr) const;

  size_t size() const { return entries_->size(); }

 private:
  bool Explored(GraphId id) const { return states_->Explored(id); }
  int64_t ExploredAt(GraphId id) const { return states_->ExploredAt(id); }
  /// True if a ranks strictly before b in the priority order.
  bool Before(const PoolEntry& a, const PoolEntry& b) const;

  RouteStateArray* states_;
  std::vector<PoolEntry>* entries_;
};

}  // namespace lan

#endif  // LAN_PG_CANDIDATE_POOL_H_
