#ifndef LAN_LAN_LAN_INDEX_H_
#define LAN_LAN_LAN_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "gnn/embedding.h"
#include "lan/cluster_model.h"
#include "lan/ground_truth.h"
#include "lan/kmeans.h"
#include "lan/learned_init.h"
#include "lan/neighborhood_model.h"
#include "lan/rank_model.h"
#include "pg/hnsw.h"
#include "pg/np_route.h"
#include "pg/result_cache.h"

namespace lan {

/// \brief Which router executes the query.
enum class RoutingMethod : int {
  /// np_route with the learned M_rk ranker (LAN_Route).
  kLanRoute = 0,
  /// Algorithm 1, exhaustive neighbor exploration (HNSW_Route).
  kBaselineRoute = 1,
  /// np_route with the oracle ranker (the Theorem 1 skyline; ablation).
  kOracleRoute = 2,
};

/// \brief How the routing start node is chosen.
enum class InitMethod : int {
  kLanIs = 0,    // learned (M_nh + M_c)
  kHnswIs = 1,   // HNSW upper-layer descent
  kRandomIs = 2, // uniform random
};

const char* RoutingMethodName(RoutingMethod m);
const char* InitMethodName(InitMethod m);

/// \brief End-to-end configuration of a LanIndex.
struct LanConfig {
  // ---- Index construction ----
  HnswOptions hnsw;
  /// Distances used at query time and for training tables. PG construction
  /// always uses the approximate tiers without Beam.
  GedOptions query_ged;

  // ---- Routing ----
  int batch_percent = 20;  // y
  double step_size = 1.0;  // d_s
  int default_beam = 16;   // b

  // ---- Neighborhood calibration (Sec. VII: gamma* chosen so N_Q holds
  // the `neighborhood_knn`-NNs for `neighborhood_coverage` of training
  // queries; the paper uses 200-NNs at 90%). ----
  int neighborhood_knn = 50;
  double neighborhood_coverage = 0.9;

  // ---- Initial node selection ----
  LanInitOptions init;
  /// KMeans cluster count; 0 = sqrt(|D|).
  int num_clusters = 0;
  int kmeans_iterations = 20;

  // ---- Learned models ----
  PairScorerOptions scorer;  // backbone dims shared by M_rk / M_nh
  RankModelOptions rank;
  NeighborhoodModelOptions nh;
  ClusterModelOptions cluster;
  EmbeddingOptions embedding;
  size_t max_rank_examples = 4000;
  size_t max_nh_examples = 4000;

  /// Fig. 10 toggle: run model inference on compressed GNN-graphs
  /// (Definition 3) instead of raw graphs (Definition 1).
  bool use_compressed_gnn = true;

  // ---- Answer cache (docs/caching.md) ----
  /// Stores each answered query's result list, keyed by the query's
  /// canonical content hash and its search options; a repeat at the same
  /// epoch is served the stored list and runs nothing. Off by default;
  /// answers are identical either way.
  ResultCacheOptions cache;

  uint64_t seed = 123;
  /// Worker threads for offline phases, online inserts and each query's
  /// inner loops (0 = hardware concurrency). Sizes the index's resident
  /// pool, which computes each PG insertion step's distances ahead (in
  /// Build and in every Insert), derives CGs, generates training data,
  /// and inside a Search runs the GED upper-bound tiers of each distance
  /// and the chunks of each cross-encoding pass. PG insertion itself
  /// always runs in id order on the inserting thread, and a query combines
  /// its fanned-out work in a fixed order, so neither topology nor answers
  /// depend on this count. 1 runs each query on its calling thread alone,
  /// the paper's per-thread QPS setting.
  int num_threads = 0;

  /// Checks every knob is in range; called by LanIndex::Build.
  Status Validate() const;
};

/// \brief Per-query search controls. The one extensible entry point: new
/// per-query knobs are added here instead of growing positional overloads.
///
/// Defaults reproduce full LAN search; `beam <= 0` resolves to the index's
/// `LanConfig::default_beam` at search time.
struct SearchOptions {
  /// Number of answers.
  int k = 10;
  /// Beam size b of the candidate pool W (<= 0: LanConfig::default_beam).
  int beam = 0;
  RoutingMethod routing = RoutingMethod::kLanRoute;
  InitMethod init = InitMethod::kLanIs;
  /// Structured per-query trace (null: tracing disabled, zero cost). The
  /// sink is invoked synchronously on the search thread and must outlive
  /// the call. SearchBatch ignores it (a single sink cannot soundly
  /// receive interleaved events from parallel workers); batch callers
  /// that want traces set `trace_factory` instead.
  TraceSink* trace = nullptr;
  /// SearchBatch-only: called once per query (from the worker thread, so
  /// it must be thread-safe) to obtain that query's private sink; may
  /// return null to skip tracing a query. Each returned sink receives one
  /// query's events with no interleaving and must outlive the batch call.
  /// Ignored by single-query Search.
  std::function<TraceSink*(size_t query_index)> trace_factory;
  /// Per-stage latency profiling (see common/profile.h). When set, the
  /// query runs under a StageProfile and its exclusive per-stage times
  /// land in SearchResult::stats.stages; SearchBatch additionally fills
  /// `stage.<name>_seconds` histograms in the batch metrics. Off by
  /// default: the disabled path is a null-pointer check per span.
  bool profile = false;
};

/// \brief One query's answer.
struct SearchResult {
  KnnList results;
  SearchStats stats;
  /// Index epoch the query was served at (which snapshot of a mutable
  /// index answered it; 0 until the first Insert/Remove).
  uint64_t epoch = 0;
  /// Why the query failed (empty results) instead of silently degrading:
  /// searching before Build(), a learned routing/init mode on an untrained
  /// index, or a query label outside the database alphabet. Always check
  /// when the index lifecycle is not statically known (serving, tools).
  Status status;
};

/// \brief The per-query metrics over one registry: counters `queries` and
/// `query_errors`, histogram `query_latency_seconds`, and the work
/// histograms `query_ndc`, `query_routing_steps`, `query_model_inferences`,
/// `query_cross_encodings` and `query_cache_hits`.
///
/// SearchBatch, EvaluatePoint, `lan_tool search` and `lan_tool serve` all
/// record through this one helper, so their metrics carry the same set.
class QueryHistograms {
 public:
  /// Registers the set on `registry`; a null registry records nothing.
  explicit QueryHistograms(MetricsRegistry* registry);

  /// Counts the query (and its failure), observes its latency `seconds`
  /// and one sample per work histogram, zeros included: a query that
  /// computed nothing (a cache hit) is a real observation here.
  void Observe(const SearchResult& result, double seconds) const;

 private:
  MetricsRegistry* registry_;
  CounterId queries_{};
  CounterId errors_{};
  HistogramId latency_{};
  HistogramId ndc_{};
  HistogramId routing_steps_{};
  HistogramId model_inferences_{};
  HistogramId cross_encodings_{};
  HistogramId cache_hits_{};
};

/// \brief Aggregate view of one SearchBatch call.
struct BatchStats {
  /// Element-wise sum of every per-query SearchStats.
  SearchStats totals;
  /// Latency/NDC/steps/inference distributions over the batch (scraped
  /// from a per-call MetricsRegistry): the QueryHistograms set.
  MetricsSnapshot metrics;
};

/// \brief Per-query results plus the merged batch aggregate.
struct BatchSearchResult {
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// \brief Immutable state of a LanIndex at one epoch. Readers pin one
/// snapshot for a whole query; the writer publishes a successor and never
/// mutates a published one, so searches proceed lock-free while the index
/// changes underneath them (RCU).
///
/// The components a mutation leaves untouched are shared with the previous
/// snapshot (Remove copies only the live bitmap), so publishing is cheap
/// relative to the GED work an Insert does anyway.
struct IndexSnapshot {
  /// Monotone version: 0 after Build, +1 per Insert/Remove.
  uint64_t epoch = 0;
  /// Nodes in the PG / rows in every derived table (includes tombstones).
  GraphId num_graphs = 0;
  /// Graphs that are still answers (`num_graphs` minus tombstones).
  GraphId live_count = 0;
  std::shared_ptr<const HnswIndex> hnsw;
  /// live[id] == 0 marks a tombstone: routed through, never returned.
  std::shared_ptr<const std::vector<uint8_t>> live;
  /// cgs[id] is graph id's CG, derived from the graph (never persisted).
  std::shared_ptr<const std::vector<CompressedGnnGraph>> cgs;
  std::shared_ptr<const KMeansResult> clusters;
};

/// \brief The LAN index: proximity graph + M_rk + M_nh + M_c (Fig. 3).
///
/// Usage: Build() once over the database (offline), Train() once over a
/// query workload (offline), then Search() per query. SearchOptions
/// exposes every routing/init ablation the paper evaluates — over the same
/// PG — plus per-query observability (tracing).
///
/// Online updates: when Built over a *mutable* database, Insert()/Remove()
/// maintain the index without a rebuild or retrain — each mutation derives
/// the new graph's CG and (from its embedding) cluster assignment, extends
/// the PG with the same per-node step batch construction uses, and
/// publishes a new epoch. One writer at a time (Insert/Remove serialize on
/// an internal mutex); Search/SearchBatch never block on the writer —
/// every query pins the snapshot current at its start (see IndexSnapshot).
/// The learned models are NOT retrained on mutation; see
/// docs/index_lifecycle.md for the staleness semantics.
class LanIndex {
 public:
  explicit LanIndex(LanConfig config);
  ~LanIndex();

  LanIndex(const LanIndex&) = delete;
  LanIndex& operator=(const LanIndex&) = delete;

  /// Builds the PG, the per-graph CGs, and the clusters of the graphs'
  /// embeddings.
  /// `db` must outlive the index. An index built over a const database is
  /// immutable: Insert/Remove fail.
  Status Build(const GraphDatabase* db);
  /// Mutable overload: also enables Insert()/Remove(), which append to /
  /// tombstone `db`. The caller must not mutate `db` directly afterwards.
  Status Build(GraphDatabase* db);

  /// Online insert: appends `graph` to the database, derives its CG /
  /// embedding / nearest-centroid cluster assignment, extends the PG with
  /// the same insertion step batch construction uses (its distances
  /// computed ahead on the resident pool, as in Build), and publishes the
  /// next epoch. Concurrent searches are never blocked; they keep serving
  /// the previous epoch until the publish. Requires a mutable Build.
  /// The learned models are not retrained (the new graph is still
  /// rankable: M_rk computes its context embedding from the new CG).
  Result<GraphId> Insert(Graph graph);

  /// Online remove: tombstones `id` from this epoch on. The graph keeps
  /// its PG node (still a navigation waypoint) and remains an answer for
  /// searches already pinned to an older epoch. Requires a mutable Build.
  Status Remove(GraphId id);

  /// Persists the index's state — database, PG, clusters, tombstones,
  /// epoch, and (if trained) the model parameters — as one sectioned
  /// snapshot file (store/snapshot.h, docs/snapshot_format.md), the
  /// index's only persistence format. The CGs are derived from the graphs
  /// and not stored. The result is self-contained: OpenSnapshot needs no
  /// database.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a SaveSnapshot file: validates the container (header, TOC,
  /// checksums), then decodes every section into the same owned
  /// structures Build produces, checking each against the invariants its
  /// consumers rely on, so a malformed file yields a Status, and derives
  /// every graph's CG at the config's GNN depth as Build does. Nothing
  /// refers to the file once this returns. The index owns its database and
  /// is immediately searchable — trained, if the snapshot carried models —
  /// and Insert()/Remove() work as after Build.
  Status OpenSnapshot(const std::string& path);

  /// Trains gamma*, M_rk, M_nh, and M_c from the training queries.
  Status Train(const std::vector<Graph>& train_queries);

  /// Checks that this index can execute a search with `options`: Build()
  /// has run, the knobs are in range, and — for routing/init modes that
  /// need the learned models — Train() has run or a trained snapshot was
  /// opened. SearchInto additionally rejects an empty query or one whose
  /// labels fall outside the database alphabet (GraphDatabase::CheckGraph).
  Status Ready(const SearchOptions& options) const;

  /// The search entry point. Every routing/init ablation, tracing, and
  /// future per-query knobs route through SearchOptions. A not-Ready index
  /// returns an empty result carrying the error in SearchResult::status
  /// instead of crashing or silently degrading.
  SearchResult Search(const Graph& query, const SearchOptions& options) const;

  /// Allocation-free variant: writes into `out`, reusing its vectors'
  /// capacity (all fields are reset first). Per-query working state comes
  /// from the calling thread's SearchScratch, so on a 1-worker index a
  /// warmed-up thread serving baseline-routed queries performs zero heap
  /// allocations per query; a wider pool adds ThreadPool::ParallelFor's
  /// fixed allocations per fanned-out distance or inference pass.
  void SearchInto(const Graph& query, const SearchOptions& options,
                  SearchResult* out) const;

  /// Throughput mode: answers independent queries in parallel on the
  /// index's resident pool (LanConfig::num_threads workers, so batch calls
  /// pay no thread-creation latency); each query's own inner loops then
  /// run inline on its worker. Results are
  /// index-aligned with `queries` and identical to sequential Search;
  /// BatchStats carries the summed SearchStats plus a metrics snapshot
  /// (latency/NDC distributions and index_live_size / index_tombstones /
  /// index_epoch gauges), so callers no longer hand-sum stats.
  /// `options.trace` is ignored; set `options.trace_factory` for one
  /// private sink per query.
  BatchSearchResult SearchBatch(const std::vector<Graph>& queries,
                                const SearchOptions& options) const;

  // ---- Introspection (benches, tests; setup-phase views — references
  // are into the snapshot current at the call and stay valid until two
  // further mutations retire it) ----
  const HnswIndex& hnsw() const { return *Snapshot()->hnsw; }
  const ProximityGraph& pg() const { return Snapshot()->hnsw->BaseLayer(); }
  const GraphDatabase& db() const { return *db_; }
  double gamma_star() const { return gamma_star_; }
  const NeighborhoodModel* neighborhood_model() const { return nh_model_.get(); }
  const ClusterModel* cluster_model() const { return cluster_model_.get(); }
  const NeighborRankModel* rank_model() const { return rank_model_.get(); }
  const std::vector<CompressedGnnGraph>& db_cgs() const {
    return *Snapshot()->cgs;
  }
  const KMeansResult& clusters() const { return *Snapshot()->clusters; }
  const LanConfig& config() const { return config_; }
  /// Workers in the resident pool (config().num_threads resolved): the
  /// width each Search's inner loops fan out over.
  size_t num_threads() const { return pool_->num_threads(); }
  bool trained() const { return trained_; }
  /// The answer cache, or null when `config.cache.enabled` is false. Stats()/AppendMetrics expose hit rates; tools surface them via
  /// --metrics-out.
  ResultCache* result_cache() const { return result_cache_.get(); }

  // ---- Mutable-index introspection ----
  /// The snapshot a search starting now would pin. Holding the returned
  /// shared_ptr keeps that epoch's whole state alive.
  std::shared_ptr<const IndexSnapshot> Snapshot() const;
  uint64_t epoch() const { return Snapshot()->epoch; }
  /// Graphs a search at the current epoch can return.
  GraphId live_size() const { return Snapshot()->live_count; }
  /// Tombstoned graphs still serving as navigation waypoints.
  GraphId tombstones() const {
    const auto snap = Snapshot();
    return snap->num_graphs - snap->live_count;
  }

  /// CG of an ad-hoc query graph under this index's GNN depth, built by
  /// its first Get(). `query` must outlive the result.
  LazyQueryCg QueryCg(const Graph& query) const;

 private:
  /// Tail of Build: derives CGs and clusters over the database, then
  /// publishes the first snapshot (epoch 0, all live).
  void FinishBuild(HnswIndex hnsw);
  /// Every database graph's CG at the config's GNN depth, built on the
  /// resident pool (Sec. VI-C: a one-off offline cost). Build and
  /// OpenSnapshot both derive them this way.
  std::shared_ptr<const std::vector<CompressedGnnGraph>> DeriveCgs() const;
  /// Shared tail of FinishBuild and OpenSnapshot: the online-insert level
  /// stream (a function of the size at Build and of the inserts since)
  /// and the result cache; marks the index built.
  void FinishSetup(GraphId built_size, uint64_t inserted_since_build);
  /// Replaces M_rk, M_nh and M_c with untrained models of the configured
  /// architectures (Train fits them; OpenSnapshot loads their parameters).
  void MakeModels(int32_t num_labels);
  /// Installs `snap` as the current snapshot (release publish).
  void Publish(std::shared_ptr<const IndexSnapshot> snap);

  LanConfig config_;
  const GraphDatabase* db_ = nullptr;
  /// Non-null only after a mutable Build; gates Insert/Remove.
  GraphDatabase* mutable_db_ = nullptr;
  /// OpenSnapshot mode: the index owns its database (db_/mutable_db_
  /// point here) instead of borrowing the caller's.
  std::unique_ptr<GraphDatabase> owned_db_;
  GedComputer query_ged_;
  /// Non-null iff config_.cache.enabled: the answer cache SearchInto
  /// probes before searching.
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<ThreadPool> pool_;

  /// Current epoch's state; accessed via atomic shared_ptr ops (readers
  /// pin it once per query, the writer swaps it under writer_mu_).
  std::shared_ptr<const IndexSnapshot> snapshot_;
  /// Serializes Insert/Remove (and setup-phase snapshot replacement).
  mutable std::mutex writer_mu_;
  /// Continues the level-draw stream for online PG inserts.
  Rng insert_rng_{0};

  double gamma_star_ = 0.0;
  std::unique_ptr<NeighborRankModel> rank_model_;
  std::unique_ptr<NeighborhoodModel> nh_model_;
  std::unique_ptr<ClusterModel> cluster_model_;
  bool built_ = false;
  bool trained_ = false;
};

}  // namespace lan

#endif  // LAN_LAN_LAN_INDEX_H_
