#include "pg/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/prefetch.h"

namespace lan {
namespace {

/// Draws one construction level (the standard -ln(u)/ln(M) assignment).
/// Both batch Build and incremental Insert draw through this, one call per
/// node in id order, so a fixed seed yields a fixed level sequence.
int DrawLevel(Rng* rng, const HnswOptions& options) {
  const double level_mult = 1.0 / std::log(std::max(2, options.M));
  const double u = std::max(rng->NextDouble(), 1e-12);
  return static_cast<int>(-std::log(u) * level_mult);
}

/// Grows `core` by one node per entry of `levels` (ids num_nodes,
/// num_nodes + 1, ...): records each level and sizes every layer's rows,
/// adding no edges. Insertion then only indexes the core, never grows it.
void AppendNodes(HnswCore* core, const std::vector<int>& levels) {
  core->node_level.insert(core->node_level.end(), levels.begin(),
                          levels.end());
  core->num_nodes += static_cast<GraphId>(levels.size());
  const int top = *std::max_element(levels.begin(), levels.end());
  while (static_cast<int>(core->adjacency.size()) <= top) {
    core->adjacency.emplace_back();
  }
  for (auto& layer : core->adjacency) {
    layer.resize(static_cast<size_t>(core->num_nodes));
  }
}

/// The per-node HNSW insertion step (Malkov & Yashunin): greedy descent
/// through the layers above the node's level, ef-search at each layer
/// from there down to the base, and diversity-heuristic neighbor
/// selection. Batch Build and the online Insert both run it, one id at a
/// time on the calling thread, so every run makes the same distance
/// comparisons in the same order and the topology is bit-for-bit
/// reproducible. The only parallelism is computing distances ahead on a
/// pool: Prefetch for a search step, PrefetchShrinks for a layer's
/// neighbor-list shrinks. The in-order loops then read values equal to the
/// ones they would have computed themselves.
class HnswInserter {
 public:
  /// `pool` (optional) computes distances ahead. A pool of one worker
  /// would only run that work inline, so it is not used.
  HnswInserter(HnswCore* core, const HnswIndex::PairDistanceFn& distance,
               const HnswOptions& options, ThreadPool* pool)
      : core_(core), distance_fn_(distance), options_(options),
        pool_(pool != nullptr && pool->num_threads() > 1 ? pool : nullptr) {}

  /// Inserts node `id`, whose level and (empty) rows AppendNodes already
  /// put in the core. The first node inserted becomes the entry point.
  void Insert(GraphId id) {
    if (core_->entry == kInvalidGraphId) {
      core_->entry = id;
      return;
    }
    const int level = core_->node_level[static_cast<size_t>(id)];
    GraphId curr = core_->entry;
    const int top = core_->node_level[static_cast<size_t>(curr)];
    for (int l = top; l > level; --l) {
      curr = GreedyStep(id, curr, l);
    }
    for (int l = std::min(level, top); l >= 0; --l) {
      std::vector<Item> candidates =
          SearchLayer(id, curr, options_.ef_construction, l);
      const int cap = (l == 0) ? 2 * options_.M : options_.M;
      const size_t keep =
          std::min(candidates.size(), static_cast<size_t>(cap));
      PrefetchShrinks(id, {candidates.data(), keep}, l, cap);
      for (size_t i = 0; i < keep; ++i) {
        Connect(id, candidates[i].second, l, cap);
      }
      speculative_.clear();
      if (!candidates.empty()) curr = candidates[0].second;
    }
    if (level > top) core_->entry = id;
  }

 private:
  using Item = std::pair<double, GraphId>;
  using PairList = std::vector<std::pair<GraphId, GraphId>>;

  static int64_t PairKey(GraphId a, GraphId b) {
    const int64_t lo = std::min(a, b);
    const int64_t hi = std::max(a, b);
    return (hi << 32) | lo;
  }

  /// Key of the ordered pair (a, b), for values computed ahead.
  static int64_t OrderedKey(GraphId a, GraphId b) {
    return (int64_t{a} << 32) | b;
  }

  /// The distance of {a, b} as the in-order loops see it: the cached value
  /// if the pair was asked for before, in whichever order that was, else
  /// d(a, b), taken from speculative_ when it was computed ahead.
  double Distance(GraphId a, GraphId b) {
    if (a == b) return 0.0;
    const auto [it, inserted] = cache_.try_emplace(PairKey(a, b), 0.0);
    if (inserted) {
      const auto ahead = speculative_.find(OrderedKey(a, b));
      it->second = ahead != speculative_.end() ? ahead->second
                                               : distance_fn_(a, b);
    }
    return it->second;
  }

  /// What Distance(a, b) would return now, for a pair that is cached or
  /// was computed ahead in this order; caches nothing.
  double Peek(GraphId a, GraphId b) const {
    if (a == b) return 0.0;
    const auto it = cache_.find(PairKey(a, b));
    return it != cache_.end() ? it->second
                              : speculative_.at(OrderedKey(a, b));
  }

  /// With a pool, computes the distances from `target` to `others` that
  /// are not cached yet in parallel, so the caller's in-order loop over
  /// `others` then computes none itself. The pool computes the pairs the
  /// loop would, in the same argument order, so the values are the same.
  void Prefetch(GraphId target, const std::vector<GraphId>& others) {
    if (pool_ == nullptr) return;
    PairList pairs;
    for (GraphId o : others) Plan(target, o, &pairs);
    ComputeAhead(&pairs);
  }

  /// With a pool, computes on it the distances the Shrinks of one layer's
  /// Connect calls will ask for, in three batches: each shrunk node's
  /// distance to its list members; then, in the closest-first order those
  /// give, every (candidate, closest) pair; then every (candidate, closer
  /// candidate) pair among those the closest does not reject. The lists
  /// are exact: each neighbor's row plus `id`, and no Connect of the layer
  /// touches another neighbor's row. Some of these values are never read:
  /// the diversity check stops at the first closer neighbor.
  void PrefetchShrinks(GraphId id, std::span<const Item> neighbors, int layer,
                       int cap) {
    if (pool_ == nullptr) return;
    std::vector<std::pair<GraphId, std::vector<GraphId>>> shrunk;
    for (const auto& [d, b] : neighbors) {
      std::vector<GraphId> list = Row(layer, b);
      if (std::find(list.begin(), list.end(), id) == list.end()) {
        list.push_back(id);
      }
      if (list.size() > static_cast<size_t>(cap)) {
        shrunk.emplace_back(b, std::move(list));
      }
    }
    PairList pairs;
    for (const auto& [node, list] : shrunk) {
      for (GraphId x : list) Plan(node, x, &pairs);
    }
    ComputeAhead(&pairs);
    // The closest candidate is always kept, and every other candidate is
    // compared with it first.
    std::vector<std::vector<Item>> orders;
    orders.reserve(shrunk.size());
    for (const auto& [node, list] : shrunk) {
      std::vector<Item>& closest_first = orders.emplace_back();
      for (GraphId x : list) closest_first.emplace_back(Peek(node, x), x);
      std::sort(closest_first.begin(), closest_first.end());
      for (size_t i = 1; i < closest_first.size(); ++i) {
        Plan(closest_first[i].second, closest_first[0].second, &pairs);
      }
    }
    ComputeAhead(&pairs);
    // A candidate closer to the closest one than to the node is never
    // kept, so only the others can be compared with each other.
    for (const std::vector<Item>& closest_first : orders) {
      std::vector<GraphId> maybe_kept = {closest_first[0].second};
      for (size_t i = 1; i < closest_first.size(); ++i) {
        const auto& [d_node, candidate] = closest_first[i];
        if (Peek(candidate, maybe_kept[0]) < d_node) continue;
        for (GraphId earlier : maybe_kept) Plan(candidate, earlier, &pairs);
        maybe_kept.push_back(candidate);
      }
    }
    ComputeAhead(&pairs);
  }

  /// Appends (a, b) to `pairs`, and reserves its slot in speculative_,
  /// unless Distance(a, b) would already find a value.
  void Plan(GraphId a, GraphId b, PairList* pairs) {
    if (a != b && !cache_.contains(PairKey(a, b)) &&
        speculative_.try_emplace(OrderedKey(a, b), 0.0).second) {
      pairs->emplace_back(a, b);
    }
  }

  /// Computes d(a, b) for every planned pair on the pool into its
  /// speculative_ slot, and empties the list. The distance need not be
  /// symmetric and cache_ keeps the order asked first, so a value waits
  /// there under its argument order until Distance reads exactly that
  /// pair; one never read is dropped with the layer.
  void ComputeAhead(PairList* pairs) {
    std::vector<double> results(pairs->size());
    pool_->ParallelFor(pairs->size(), [&](size_t i) {
      results[i] = distance_fn_((*pairs)[i].first, (*pairs)[i].second);
    });
    for (size_t i = 0; i < pairs->size(); ++i) {
      speculative_[OrderedKey((*pairs)[i].first, (*pairs)[i].second)] =
          results[i];
    }
    pairs->clear();
  }

  const std::vector<GraphId>& Row(int layer, GraphId node) const {
    return core_->adjacency[static_cast<size_t>(layer)]
                           [static_cast<size_t>(node)];
  }

  GraphId GreedyStep(GraphId target, GraphId start, int layer) {
    GraphId curr = start;
    double curr_d = Distance(target, curr);
    for (;;) {
      const std::vector<GraphId>& neighbors = Row(layer, curr);
      Prefetch(target, neighbors);
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : neighbors) {
        const double d = Distance(target, n);
        if (d < best_d) {
          best = n;
          best_d = d;
        }
      }
      if (best == curr) return curr;
      curr = best;
      curr_d = best_d;
    }
  }

  /// ef-search in one layer; returns (distance, id) ascending.
  std::vector<Item> SearchLayer(GraphId target, GraphId start, int ef,
                                int layer) {
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
    std::priority_queue<Item> best;  // max-heap, size <= ef
    std::unordered_set<GraphId> visited;

    const double d0 = Distance(target, start);
    frontier.emplace(d0, start);
    best.emplace(d0, start);
    visited.insert(start);

    while (!frontier.empty()) {
      const auto [d, node] = frontier.top();
      frontier.pop();
      if (d > best.top().first && best.size() >= static_cast<size_t>(ef)) {
        break;
      }
      std::vector<GraphId> todo;
      for (GraphId n : Row(layer, node)) {
        if (visited.insert(n).second) todo.push_back(n);
      }
      Prefetch(target, todo);
      for (GraphId n : todo) {
        const double dn = Distance(target, n);
        if (best.size() < static_cast<size_t>(ef) || dn < best.top().first) {
          frontier.emplace(dn, n);
          best.emplace(dn, n);
          if (best.size() > static_cast<size_t>(ef)) best.pop();
        }
      }
    }
    std::vector<Item> out;
    out.reserve(best.size());
    while (!best.empty()) {
      out.push_back(best.top());
      best.pop();
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Adds the edge {a, b} at `layer`: appends b to a's list and shrinks
  /// it, then the same for a in b's list.
  void Connect(GraphId a, GraphId b, int layer, int cap) {
    for (const auto& [node, other] : {std::pair{a, b}, std::pair{b, a}}) {
      auto& list = core_->adjacency[static_cast<size_t>(layer)]
                                   [static_cast<size_t>(node)];
      if (std::find(list.begin(), list.end(), other) == list.end()) {
        list.push_back(other);
      }
      Shrink(&list, node, cap);
    }
  }

  /// Keeps `cap` of `node`'s neighbors. Candidates are taken closest
  /// first, and one is kept only if it is closer to `node` than to every
  /// already-kept neighbor, so kept edges spread across clusters instead
  /// of all pointing into one; the nearest rejected candidates then fill
  /// any remaining slots (keepPrunedConnections).
  void Shrink(std::vector<GraphId>* list, GraphId node, int cap) {
    if (list->size() <= static_cast<size_t>(cap)) return;
    // Each distance to `node` is read once; ties break by id.
    std::vector<Item> closest_first;
    closest_first.reserve(list->size());
    for (GraphId x : *list) closest_first.emplace_back(Distance(node, x), x);
    std::sort(closest_first.begin(), closest_first.end());
    std::vector<GraphId> kept;
    std::vector<GraphId> spilled;
    for (const auto& [d_node, candidate] : closest_first) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      bool diverse = true;
      for (GraphId existing : kept) {
        if (Distance(candidate, existing) < d_node) {
          diverse = false;
          break;
        }
      }
      if (diverse) {
        kept.push_back(candidate);
      } else {
        spilled.push_back(candidate);
      }
    }
    for (GraphId candidate : spilled) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      kept.push_back(candidate);
    }
    *list = std::move(kept);
  }

  HnswCore* core_;
  const HnswIndex::PairDistanceFn& distance_fn_;
  const HnswOptions& options_;
  ThreadPool* pool_;
  /// Pair distances memoized across the whole build (or one online
  /// Insert): neighbor sets overlap heavily across insertions, so
  /// GED-heavy builds revisit the same pairs constantly.
  std::unordered_map<int64_t, double> cache_;
  /// d(a, b) computed ahead on the pool during the current layer, by
  /// OrderedKey; Distance moves a value into cache_ only when it is asked
  /// for.
  std::unordered_map<int64_t, double> speculative_;
};

}  // namespace

HnswIndex HnswIndex::Build(const GraphDatabase& db, const GedComputer& ged,
                           const HnswOptions& options, ThreadPool* pool) {
  return BuildWithDistance(
      db.size(),
      [&db, &ged](GraphId a, GraphId b) {
        return ged
            .Compute(db.Get(a), db.Prepared(a), db.Get(b), db.Prepared(b))
            .distance;
      },
      options, pool);
}

HnswIndex HnswIndex::BuildWithDistance(GraphId num_nodes,
                                       const PairDistanceFn& distance,
                                       const HnswOptions& options,
                                       ThreadPool* pool) {
  LAN_CHECK_GT(num_nodes, 0);
  HnswIndex index;
  // The level draws an insert loop makes: one per node, in id order.
  Rng rng(options.seed);
  std::vector<int> levels(static_cast<size_t>(num_nodes));
  for (int& level : levels) level = DrawLevel(&rng, options);
  AppendNodes(&index.core_, levels);
  HnswInserter inserter(&index.core_, distance, options, pool);
  for (GraphId id = 0; id < num_nodes; ++id) inserter.Insert(id);
  index.RebuildViewFromCore();
  return index;
}

Status HnswIndex::Insert(GraphId id, const PairDistanceFn& distance,
                         const HnswOptions& options, Rng* rng,
                         ThreadPool* pool) {
  if (id != core_.num_nodes) {
    return Status::InvalidArgument(
        "Insert: id must equal the current node count");
  }
  AppendNodes(&core_, {DrawLevel(rng, options)});
  HnswInserter(&core_, distance, options, pool).Insert(id);
  RebuildViewFromCore();
  return Status::OK();
}

void HnswIndex::SkipInsertLevels(Rng* rng, const HnswOptions& options,
                                 uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) DrawLevel(rng, options);
}

void HnswIndex::RebuildViewFromCore() {
  if (core_.num_nodes == 0) {
    base_layer_ = ProximityGraph();
    return;
  }
  // The base layer is core layer 0 symmetrized.
  const auto& base_rows = core_.adjacency[0];
  base_layer_ = ProximityGraph::Symmetrize(
      core_.num_nodes, [&base_rows](const auto& emit) {
        for (size_t id = 0; id < base_rows.size(); ++id) {
          for (GraphId n : base_rows[id]) emit(static_cast<GraphId>(id), n);
        }
      });
}

Result<HnswIndex> HnswIndex::FromCore(HnswCore core) {
  const GraphId n = core.num_nodes;
  if (n <= 0) return Status::IoError("hnsw core: bad node count");
  if (core.entry < 0 || core.entry >= n) {
    return Status::IoError("hnsw core: bad entry point");
  }
  const size_t num_layers = core.adjacency.size();
  if (num_layers == 0 || num_layers > 64) {
    return Status::IoError("hnsw core: bad layer count");
  }
  if (core.node_level.size() != static_cast<size_t>(n)) {
    return Status::IoError("hnsw core: node level count mismatch");
  }
  for (const int level : core.node_level) {
    if (level < 0 || static_cast<size_t>(level) >= num_layers) {
      return Status::IoError("hnsw core: bad node level");
    }
  }
  for (const auto& layer : core.adjacency) {
    if (layer.size() != static_cast<size_t>(n)) {
      return Status::IoError("hnsw core: row count mismatch");
    }
    for (GraphId id = 0; id < n; ++id) {
      for (const GraphId other : layer[static_cast<size_t>(id)]) {
        if (other < 0 || other >= n) {
          return Status::IoError("hnsw core: neighbor out of range");
        }
        if (other == id) return Status::IoError("hnsw core: self loop");
      }
    }
  }
  HnswIndex index;
  index.core_ = std::move(core);
  index.RebuildViewFromCore();
  return index;
}

namespace {

/// HNSW_IS's greedy descent through `core`'s upper layers.
/// `evaluate_row(ids)` makes a row's distances ready, and `distance(id)`
/// reads one (evaluating it if needed).
template <typename EvaluateRow, typename Distance>
GraphId GreedyDescent(const HnswCore& core, const EvaluateRow& evaluate_row,
                      const Distance& distance) {
  GraphId curr = core.entry;
  double curr_d = distance(curr);
  // Upper layers top down, over the core's directed rows (a node's row is
  // empty in the layers above its level).
  for (size_t l = core.adjacency.size(); l-- > 1;) {
    const std::vector<std::vector<GraphId>>& rows = core.adjacency[l];
    for (;;) {
      GraphId best = curr;
      double best_d = curr_d;
      const std::vector<GraphId>& row = rows[static_cast<size_t>(curr)];
      evaluate_row(std::span<const GraphId>(row));
      for (GraphId n : row) {
        const double d = distance(n);
        if (d < best_d) {
          best = n;
          best_d = d;
        }
      }
      if (best == curr) break;
      curr = best;
      curr_d = best_d;
      // Hint the next hop's row while the distance evaluations above are
      // still warm in flight.
      const std::vector<GraphId>& next = rows[static_cast<size_t>(curr)];
      PrefetchReadRange(next.data(), next.size() * sizeof(GraphId));
    }
  }
  return curr;
}

}  // namespace

GraphId HnswIndex::SelectInitialNode(DistanceOracle* oracle) const {
  // Each greedy row's distances are evaluated as one batch.
  return GreedyDescent(
      core_, [oracle](std::span<const GraphId> row) { oracle->Evaluate(row); },
      [oracle](GraphId id) { return oracle->Distance(id); });
}

GraphId HnswIndex::SelectInitialNodeFn(
    const std::function<double(GraphId)>& distance) const {
  return GreedyDescent(core_, [](std::span<const GraphId>) {}, distance);
}

RoutingResult HnswIndex::Search(DistanceOracle* oracle, int ef, int k,
                                const std::vector<uint8_t>* live) const {
  const GraphId init = SelectInitialNode(oracle);
  return BeamSearchRoute(base_layer_, oracle, init, ef, k, live);
}

}  // namespace lan
