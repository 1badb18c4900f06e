#include "pg/hnsw.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"

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

/// The per-node insertion step over a construction-form HnswCore: greedy
/// upper-layer descent, ef-search per layer, diversity-heuristic neighbor
/// selection. One mutator instance serves a whole batch build (sharing its
/// pair-distance cache across inserts); the public Insert creates a fresh
/// one per call.
class HnswMutator {
 public:
  HnswMutator(HnswCore* core, HnswIndex::PairDistanceFn distance,
              const HnswOptions& options, ThreadPool* pool)
      : core_(core), distance_fn_(std::move(distance)), options_(options),
        pool_(pool) {}

  double Distance(GraphId a, GraphId b) {
    if (a == b) return 0.0;
    const int64_t key = PairKey(a, b);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const double d = distance_fn_(a, b);
    cache_.emplace(key, d);
    return d;
  }

  /// Distances from `target` to many nodes, parallelized when a pool is
  /// available. Results land in the cache.
  void BulkDistance(GraphId target, const std::vector<GraphId>& others) {
    std::vector<GraphId> missing;
    for (GraphId o : others) {
      if (o != target && !cache_.contains(PairKey(target, o))) {
        missing.push_back(o);
      }
    }
    if (missing.size() < 2 || pool_ == nullptr) {
      for (GraphId o : missing) Distance(target, o);
      return;
    }
    std::vector<double> results(missing.size());
    for (size_t i = 0; i < missing.size(); ++i) {
      pool_->Submit([this, target, &missing, &results, i] {
        results[i] = distance_fn_(target, missing[i]);
      });
    }
    pool_->Wait();
    for (size_t i = 0; i < missing.size(); ++i) {
      cache_.emplace(PairKey(target, missing[i]), results[i]);
    }
  }

  /// Inserts node `id` (== current node count) at construction level
  /// `level`: grows the layered adjacency, descends greedily through the
  /// layers above `level`, then connects via ef-search at each layer from
  /// min(level, top) down to the base.
  void Insert(GraphId id, int level) {
    const int max_level = TopLevel();
    core_->num_nodes = id + 1;
    core_->node_level.resize(static_cast<size_t>(id) + 1, 0);
    core_->node_level[static_cast<size_t>(id)] = level;
    while (static_cast<int>(core_->adjacency.size()) <= level) {
      core_->adjacency.emplace_back();
    }
    for (auto& layer : core_->adjacency) {
      layer.resize(static_cast<size_t>(id) + 1);
    }
    if (core_->entry == kInvalidGraphId) {
      core_->entry = id;
      return;
    }

    GraphId curr = core_->entry;
    // Greedy descent through layers above the new node's level.
    for (int l = max_level; l > level; --l) {
      curr = GreedyStep(id, curr, l);
    }
    // Connect at each layer from min(level, max_level) down to 0.
    for (int l = std::min(level, max_level); l >= 0; --l) {
      std::vector<std::pair<double, GraphId>> candidates =
          SearchLayer(id, curr, options_.ef_construction, l);
      const int cap = (l == 0) ? 2 * options_.M : options_.M;
      const size_t keep =
          std::min(candidates.size(), static_cast<size_t>(cap));
      for (size_t i = 0; i < keep; ++i) {
        Connect(id, candidates[i].second, l, cap);
      }
      if (!candidates.empty()) curr = candidates[0].second;
    }
    if (level > max_level) core_->entry = id;
  }

  /// Collects the ids whose base-layer adjacency this mutator rewires
  /// (Connect endpoints + Shrink casualties). Duplicates are not filtered.
  void set_touched_collector(std::vector<GraphId>* touched) {
    touched_ = touched;
  }

 private:
  /// Level of the current entry layer (-1 on an empty core).
  int TopLevel() const {
    return static_cast<int>(core_->adjacency.size()) - 1;
  }

  std::vector<GraphId>& Neighbors(int layer, GraphId node) {
    return core_->adjacency[static_cast<size_t>(layer)]
                           [static_cast<size_t>(node)];
  }

  GraphId GreedyStep(GraphId target, GraphId start, int layer) {
    GraphId curr = start;
    double curr_d = Distance(target, curr);
    for (;;) {
      const auto& neighbors = Neighbors(layer, curr);
      BulkDistance(target, neighbors);
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
  std::vector<std::pair<double, GraphId>> SearchLayer(GraphId target,
                                                      GraphId start, int ef,
                                                      int layer) {
    using Item = std::pair<double, GraphId>;
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
      for (GraphId n : Neighbors(layer, node)) {
        if (visited.insert(n).second) todo.push_back(n);
      }
      BulkDistance(target, todo);
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

  void Connect(GraphId a, GraphId b, int layer, int cap) {
    auto& la = Neighbors(layer, a);
    auto& lb = Neighbors(layer, b);
    if (std::find(la.begin(), la.end(), b) == la.end()) la.push_back(b);
    if (std::find(lb.begin(), lb.end(), a) == lb.end()) lb.push_back(a);
    // Base-layer rewiring is what invalidates cached routing state: the
    // endpoints gain an edge, and anything Shrink drops loses one.
    std::vector<GraphId>* touched = (layer == 0) ? touched_ : nullptr;
    if (touched != nullptr) {
      touched->push_back(a);
      touched->push_back(b);
    }
    Shrink(&la, a, cap, touched);
    Shrink(&lb, b, cap, touched);
  }

  /// Shrinks `list` to `cap` entries; when `dropped` is non-null, appends
  /// every neighbor removed in the process (callers use it to know whose
  /// base-layer view changed).
  void Shrink(std::vector<GraphId>* list, GraphId node, int cap,
              std::vector<GraphId>* dropped = nullptr) {
    if (dropped == nullptr) {
      ShrinkImpl(list, node, cap);
      return;
    }
    if (list->size() <= static_cast<size_t>(cap)) return;
    const std::vector<GraphId> before = *list;
    ShrinkImpl(list, node, cap);
    for (GraphId g : before) {
      if (std::find(list->begin(), list->end(), g) == list->end()) {
        dropped->push_back(g);
      }
    }
  }

  /// Keeps only `cap` neighbors of `node`: the closest ones, or (with the
  /// heuristic) a diversity-filtered subset per Malkov & Yashunin — a
  /// candidate is kept only if it is closer to `node` than to every
  /// already-kept neighbor, so kept edges spread across clusters instead
  /// of all pointing into one.
  void ShrinkImpl(std::vector<GraphId>* list, GraphId node, int cap) {
    if (list->size() <= static_cast<size_t>(cap)) return;
    std::sort(list->begin(), list->end(), [&](GraphId x, GraphId y) {
      const double dx = Distance(node, x);
      const double dy = Distance(node, y);
      if (dx != dy) return dx < dy;
      return x < y;
    });
    if (!options_.select_neighbors_heuristic) {
      list->resize(static_cast<size_t>(cap));
      return;
    }
    std::vector<GraphId> kept;
    std::vector<GraphId> spilled;
    for (GraphId candidate : *list) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      const double d_node = Distance(node, candidate);
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
    // Backfill with the nearest rejected candidates (keepPrunedConnections).
    for (GraphId candidate : spilled) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      kept.push_back(candidate);
    }
    *list = std::move(kept);
  }

  static int64_t PairKey(GraphId a, GraphId b) {
    const int64_t lo = std::min(a, b);
    const int64_t hi = std::max(a, b);
    return (hi << 32) | lo;
  }

  HnswCore* core_;
  HnswIndex::PairDistanceFn distance_fn_;
  const HnswOptions& options_;
  ThreadPool* pool_;
  std::unordered_map<int64_t, double> cache_;
  std::vector<GraphId>* touched_ = nullptr;
};

/// Concurrent batch construction over a pre-sized HnswCore, hnswlib/SVS
/// style: levels are pre-drawn (so the seed's level stream matches the
/// serial builder's), every node owns a mutex guarding its neighbor lists
/// at all layers, and insertions run in parallel, each locking at most one
/// node at a time (read-copy a list under its node's lock; connect/shrink
/// a and b under their own locks in turn) — so no lock ordering is needed
/// and no deadlock is possible. The entry point and its level live under
/// one extra mutex.
///
/// Run with one worker it performs the exact same distance comparisons in
/// the exact same order as HnswMutator, so the topology matches the serial
/// build bit-for-bit; with more workers insertions interleave and the
/// topology is only statistically equivalent (validated by recall parity).
class ParallelHnswBuilder {
 public:
  ParallelHnswBuilder(HnswCore* core,
                      const HnswIndex::PairDistanceFn& distance,
                      const HnswOptions& options)
      : core_(core), distance_fn_(distance), options_(options) {}

  /// Builds the whole core from pre-drawn per-id levels. `num_threads` is
  /// the parallelism; the pool's resident workers are reused only when its
  /// width matches, so an explicit `num_build_threads` request always wins
  /// over whatever pool the caller happens to hold.
  void Build(const std::vector<int>& levels, size_t num_threads,
             ThreadPool* pool) {
    const GraphId n = static_cast<GraphId>(levels.size());
    // Pre-size all shared arrays: workers index, never grow, so the only
    // mutable shared state is the neighbor lists the per-node locks guard.
    core_->num_nodes = n;
    core_->node_level = levels;
    const int top = *std::max_element(levels.begin(), levels.end());
    core_->adjacency.assign(static_cast<size_t>(top) + 1, {});
    for (auto& layer : core_->adjacency) {
      layer.resize(static_cast<size_t>(n));
    }
    locks_ = std::make_unique<std::mutex[]>(static_cast<size_t>(n));
    // Node 0 seeds the graph exactly as in the serial loop: it becomes the
    // entry with no connections (nothing to connect to yet).
    core_->entry = 0;
    entry_level_ = levels[0];
    const auto insert_one = [this](size_t i) {
      InsertOne(static_cast<GraphId>(i) + 1);
    };
    if (pool != nullptr && pool->num_threads() == num_threads) {
      pool->ParallelFor(static_cast<size_t>(n) - 1, insert_one);
    } else {
      ThreadPool::ParallelFor(static_cast<size_t>(n) - 1, num_threads,
                              insert_one);
    }
  }

 private:
  using Item = std::pair<double, GraphId>;
  /// Thread-private per-insertion memo, layered over a build-wide sharded
  /// cache. The serial builder's batch-wide cache is what keeps GED-heavy
  /// builds affordable (neighbor sets overlap heavily across inserts), so
  /// the parallel builder needs one too: striping it over lock-protected
  /// shards keeps lookups nearly contention-free, and the local memo
  /// absorbs the repeated probes within a single insertion.
  using Cache = std::unordered_map<int64_t, double>;

  struct CacheShard {
    std::mutex mu;
    std::unordered_map<int64_t, double> map;
  };
  static constexpr size_t kCacheShards = 64;

  double Distance(GraphId a, GraphId b, Cache* cache) {
    if (a == b) return 0.0;
    const int64_t lo = std::min(a, b);
    const int64_t hi = std::max(a, b);
    const int64_t key = (hi << 32) | lo;
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
    CacheShard& shard = shards_[static_cast<size_t>(key) % kCacheShards];
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      auto hit = shard.map.find(key);
      if (hit != shard.map.end()) {
        cache->emplace(key, hit->second);
        return hit->second;
      }
    }
    // Computed outside the shard lock: a racing duplicate evaluation is
    // benign (the distance is deterministic) and far cheaper than holding
    // the lock across a GED call. Shard mutexes are leaf locks — taken
    // with a node lock possibly held (Shrink), never the other way round.
    const double d = distance_fn_(a, b);
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      shard.map.emplace(key, d);
    }
    cache->emplace(key, d);
    return d;
  }

  /// Snapshot of a node's neighbor list at `layer`. Copy-under-lock: the
  /// caller then searches over the copy without holding anything, so GED
  /// evaluations never serialize behind a neighbor's lock.
  std::vector<GraphId> CopyNeighbors(int layer, GraphId node) {
    std::lock_guard<std::mutex> guard(locks_[static_cast<size_t>(node)]);
    return core_->adjacency[static_cast<size_t>(layer)]
                           [static_cast<size_t>(node)];
  }

  void InsertOne(GraphId id) {
    const int level = core_->node_level[static_cast<size_t>(id)];
    Cache cache;
    GraphId curr;
    int top;
    {
      std::lock_guard<std::mutex> guard(entry_mu_);
      curr = core_->entry;
      top = entry_level_;
    }
    for (int l = top; l > level; --l) {
      curr = GreedyStep(id, curr, l, &cache);
    }
    for (int l = std::min(level, top); l >= 0; --l) {
      std::vector<Item> candidates =
          SearchLayer(id, curr, options_.ef_construction, l, &cache);
      const int cap = (l == 0) ? 2 * options_.M : options_.M;
      const size_t keep =
          std::min(candidates.size(), static_cast<size_t>(cap));
      for (size_t i = 0; i < keep; ++i) {
        Connect(id, candidates[i].second, l, cap, &cache);
      }
      if (!candidates.empty()) curr = candidates[0].second;
    }
    if (level > top) {
      std::lock_guard<std::mutex> guard(entry_mu_);
      // Re-check: another high node may have published meanwhile.
      if (level > entry_level_) {
        entry_level_ = level;
        core_->entry = id;
      }
    }
  }

  GraphId GreedyStep(GraphId target, GraphId start, int layer, Cache* cache) {
    GraphId curr = start;
    double curr_d = Distance(target, curr, cache);
    for (;;) {
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : CopyNeighbors(layer, curr)) {
        const double d = Distance(target, n, cache);
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

  std::vector<Item> SearchLayer(GraphId target, GraphId start, int ef,
                                int layer, Cache* cache) {
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
    std::priority_queue<Item> best;  // max-heap, size <= ef
    std::unordered_set<GraphId> visited;

    const double d0 = Distance(target, start, cache);
    frontier.emplace(d0, start);
    best.emplace(d0, start);
    visited.insert(start);

    while (!frontier.empty()) {
      const auto [d, node] = frontier.top();
      frontier.pop();
      if (d > best.top().first && best.size() >= static_cast<size_t>(ef)) {
        break;
      }
      for (GraphId n : CopyNeighbors(layer, node)) {
        if (!visited.insert(n).second) continue;
        const double dn = Distance(target, n, cache);
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

  /// Adds the edge {a, b} at `layer`, shrinking each endpoint's list under
  /// its own lock only. Distances inside Shrink are computed while holding
  /// that single lock; contention is per-node, never global.
  void Connect(GraphId a, GraphId b, int layer, int cap, Cache* cache) {
    for (const auto& [node, other] : {std::pair{a, b}, std::pair{b, a}}) {
      std::lock_guard<std::mutex> guard(locks_[static_cast<size_t>(node)]);
      auto& list = core_->adjacency[static_cast<size_t>(layer)]
                                   [static_cast<size_t>(node)];
      if (std::find(list.begin(), list.end(), other) == list.end()) {
        list.push_back(other);
      }
      Shrink(&list, node, cap, cache);
    }
  }

  /// Same selection rule as HnswMutator::Shrink (closest-first sort,
  /// optional diversity heuristic, spilled backfill); must be called with
  /// `node`'s lock held.
  void Shrink(std::vector<GraphId>* list, GraphId node, int cap,
              Cache* cache) {
    if (list->size() <= static_cast<size_t>(cap)) return;
    std::sort(list->begin(), list->end(), [&](GraphId x, GraphId y) {
      const double dx = Distance(node, x, cache);
      const double dy = Distance(node, y, cache);
      if (dx != dy) return dx < dy;
      return x < y;
    });
    if (!options_.select_neighbors_heuristic) {
      list->resize(static_cast<size_t>(cap));
      return;
    }
    std::vector<GraphId> kept;
    std::vector<GraphId> spilled;
    for (GraphId candidate : *list) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      const double d_node = Distance(node, candidate, cache);
      bool diverse = true;
      for (GraphId existing : kept) {
        if (Distance(candidate, existing, cache) < d_node) {
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
  std::unique_ptr<std::mutex[]> locks_;
  std::unique_ptr<CacheShard[]> shards_ =
      std::make_unique<CacheShard[]>(kCacheShards);
  std::mutex entry_mu_;
  int entry_level_ = -1;
};

}  // namespace

HnswIndex HnswIndex::Build(const GraphDatabase& db, const GedComputer& ged,
                           const HnswOptions& options, ThreadPool* pool) {
  return BuildWithDistance(
      db.size(),
      [&db, &ged](GraphId a, GraphId b) {
        return ged.Distance(db.Get(a), db.Get(b));
      },
      options, pool);
}

HnswIndex HnswIndex::BuildWithDistance(GraphId num_nodes,
                                       const PairDistanceFn& distance,
                                       const HnswOptions& options,
                                       ThreadPool* pool) {
  LAN_CHECK_GT(num_nodes, 0);
  HnswIndex index;
  size_t threads = options.num_build_threads > 0
                       ? static_cast<size_t>(options.num_build_threads)
                       : (pool != nullptr ? pool->num_threads()
                                          : DefaultThreadCount());
  if (threads <= 1 || num_nodes < 2) {
    // Serial insert loop: the determinism contract. For a fixed seed this
    // path is bit-for-bit reproducible (golden-topology tests pin it).
    HnswMutator mutator(&index.core_, distance, options, pool);
    Rng rng(options.seed);
    for (GraphId id = 0; id < num_nodes; ++id) {
      mutator.Insert(id, DrawLevel(&rng, options));
    }
  } else {
    // Pre-draw every level serially: level draws don't depend on graph
    // state, so this is the same seeded stream the serial loop consumes,
    // one draw per id in id order.
    Rng rng(options.seed);
    std::vector<int> levels(static_cast<size_t>(num_nodes));
    for (auto& level : levels) level = DrawLevel(&rng, options);
    ParallelHnswBuilder builder(&index.core_, distance, options);
    builder.Build(levels, threads, pool);
  }
  index.RebuildViewFromCore();
  return index;
}

Status HnswIndex::Insert(GraphId id, const PairDistanceFn& distance,
                         const HnswOptions& options, Rng* rng,
                         std::vector<GraphId>* touched) {
  if (id != core_.num_nodes) {
    return Status::InvalidArgument(
        "Insert: id must equal the current node count");
  }
  // A snapshot-attached index first materializes an owned core; the
  // mutation below then proceeds exactly as on a freshly built index.
  Thaw();
  const int level = DrawLevel(rng, options);
  HnswMutator mutator(&core_, distance, options, nullptr);
  if (touched != nullptr) mutator.set_touched_collector(touched);
  mutator.Insert(id, level);
  if (touched != nullptr) {
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  RebuildViewFromCore();
  return Status::OK();
}

void HnswIndex::SkipInsertLevels(Rng* rng, const HnswOptions& options,
                                 uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) DrawLevel(rng, options);
}

void HnswIndex::RebuildViewFromCore() {
  entry_point_ = core_.entry;
  layers_.clear();
  if (core_.num_nodes == 0) {
    base_layer_ = ProximityGraph();
    return;
  }
  // The base layer is core layer 0 symmetrized; upper layers are the core
  // rows verbatim.
  const auto& base_rows = core_.adjacency[0];
  base_layer_ = ProximityGraph::Symmetrize(
      core_.num_nodes, [&base_rows](const auto& emit) {
        for (size_t id = 0; id < base_rows.size(); ++id) {
          for (GraphId n : base_rows[id]) emit(static_cast<GraphId>(id), n);
        }
      });
  for (size_t l = 1; l < core_.adjacency.size(); ++l) {
    layers_.push_back(ProximityGraph::FromRows(core_.adjacency[l]));
  }
}

std::span<const GraphId> HnswIndex::CoreRow(int layer, GraphId id) const {
  if (layer > 0) {
    return layers_[static_cast<size_t>(layer) - 1].NeighborSpan(id);
  }
  if (frozen()) return frozen_core0_.NeighborSpan(id);
  const auto& row = core_.adjacency[0][static_cast<size_t>(id)];
  return {row.data(), row.size()};
}

void HnswIndex::Thaw() {
  if (!frozen()) return;
  core_.adjacency.assign(static_cast<size_t>(NumLayers()), {});
  for (int l = 0; l < NumLayers(); ++l) {
    auto& layer = core_.adjacency[static_cast<size_t>(l)];
    layer.resize(static_cast<size_t>(core_.num_nodes));
    for (GraphId id = 0; id < core_.num_nodes; ++id) {
      const std::span<const GraphId> row = CoreRow(l, id);
      layer[static_cast<size_t>(id)].assign(row.begin(), row.end());
    }
  }
  frozen_core0_ = ProximityGraph();
  // The routing view (base_layer_/layers_) still points at the attached
  // CSRs; the caller's next RebuildViewFromCore replaces it with an owned
  // one. Until then the snapshot backing must stay alive — Insert, the
  // only caller, rebuilds before returning.
}

Result<HnswIndex> HnswIndex::FromSnapshotView(const HnswSnapshotView& view) {
  if (view.num_nodes <= 0) {
    return Status::IoError("hnsw snapshot: bad node count");
  }
  if (view.entry < 0 || view.entry >= view.num_nodes) {
    return Status::IoError("hnsw snapshot: bad entry point");
  }
  const size_t num_layers = view.core_layers.size();
  if (num_layers == 0 || num_layers > 64) {
    return Status::IoError("hnsw snapshot: bad layer count");
  }
  if (view.node_level == nullptr || view.base_offsets == nullptr ||
      view.base_neighbors == nullptr) {
    return Status::IoError("hnsw snapshot: missing arrays");
  }
  for (GraphId id = 0; id < view.num_nodes; ++id) {
    const int32_t level = view.node_level[static_cast<size_t>(id)];
    if (level < 0 || level >= static_cast<int32_t>(num_layers)) {
      return Status::IoError("hnsw snapshot: bad node level");
    }
  }
  // Structural validation of every CSR: monotone offsets starting at 0,
  // neighbor ids in range, no self loops. O(edges) scan, no allocation;
  // guarantees every later NeighborSpan stays in bounds even if the file
  // was corrupted in a way its checksum missed.
  auto validate_csr = [&view](const int64_t* offsets,
                              const GraphId* neighbors) -> Status {
    if (offsets == nullptr || offsets[0] != 0) {
      return Status::IoError("hnsw snapshot: bad csr offsets");
    }
    for (GraphId id = 0; id < view.num_nodes; ++id) {
      const int64_t begin = offsets[static_cast<size_t>(id)];
      const int64_t end = offsets[static_cast<size_t>(id) + 1];
      if (end < begin) return Status::IoError("hnsw snapshot: bad csr row");
      for (int64_t i = begin; i < end; ++i) {
        const GraphId n = neighbors[static_cast<size_t>(i)];
        if (n < 0 || n >= view.num_nodes) {
          return Status::IoError("hnsw snapshot: neighbor out of range");
        }
        if (n == id) return Status::IoError("hnsw snapshot: self loop");
      }
    }
    return Status::OK();
  };
  LAN_RETURN_NOT_OK(validate_csr(view.base_offsets, view.base_neighbors));
  for (const auto& [offsets, neighbors] : view.core_layers) {
    LAN_RETURN_NOT_OK(validate_csr(offsets, neighbors));
  }

  HnswIndex index;
  index.core_.num_nodes = view.num_nodes;
  index.core_.entry = view.entry;
  index.entry_point_ = view.entry;
  index.core_.node_level.assign(view.node_level,
                                view.node_level + view.num_nodes);
  index.base_layer_ = ProximityGraph::View(view.num_nodes, view.base_offsets,
                                           view.base_neighbors);
  // Upper-layer view rows equal core rows (RebuildViewFromCore copies them
  // verbatim above the base), so the core CSR backs both.
  for (size_t l = 1; l < num_layers; ++l) {
    index.layers_.push_back(ProximityGraph::View(
        view.num_nodes, view.core_layers[l].first,
        view.core_layers[l].second));
  }
  index.frozen_core0_ = ProximityGraph::View(
      view.num_nodes, view.core_layers[0].first, view.core_layers[0].second);
  return index;
}

GraphId HnswIndex::SelectInitialNode(DistanceOracle* oracle) const {
  return SelectInitialNodeFn(
      [oracle](GraphId id) { return oracle->Distance(id); });
}

GraphId HnswIndex::SelectInitialNodeFn(
    const std::function<double(GraphId)>& distance) const {
  GraphId curr = entry_point_;
  double curr_d = distance(curr);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    for (;;) {
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : it->NeighborSpan(curr)) {
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
      it->PrefetchNeighbors(curr);
    }
  }
  return curr;
}

RoutingResult HnswIndex::Search(DistanceOracle* oracle, int ef, int k,
                                const std::vector<uint8_t>* live) const {
  const GraphId init = SelectInitialNode(oracle);
  return BeamSearchRoute(base_layer_, oracle, init, ef, k, live);
}

}  // namespace lan
