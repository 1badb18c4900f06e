#include "lan/lan_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "lan/learned_ranker.h"
#include "pg/beam_search.h"

namespace lan {
namespace {

/// Distances used while building and extending the PG: the approximate
/// tiers without Beam, which keeps construction cheap.
const GedComputer kBuildGed([] {
  GedOptions options;
  options.approximate_only = true;
  options.beam_width = 0;
  return options;
}());

}  // namespace

const char* RoutingMethodName(RoutingMethod m) {
  switch (m) {
    case RoutingMethod::kLanRoute:
      return "LAN_Route";
    case RoutingMethod::kBaselineRoute:
      return "HNSW_Route";
    case RoutingMethod::kOracleRoute:
      return "Oracle_Route";
  }
  return "?";
}

const char* InitMethodName(InitMethod m) {
  switch (m) {
    case InitMethod::kLanIs:
      return "LAN_IS";
    case InitMethod::kHnswIs:
      return "HNSW_IS";
    case InitMethod::kRandomIs:
      return "Rand_IS";
  }
  return "?";
}

LanIndex::LanIndex(LanConfig config)
    : config_(std::move(config)), query_ged_(config_.query_ged) {
  const size_t threads = config_.num_threads > 0
                             ? static_cast<size_t>(config_.num_threads)
                             : DefaultThreadCount();
  pool_ = std::make_unique<ThreadPool>(threads);
}

LanIndex::~LanIndex() = default;

Status LanConfig::Validate() const {
  if (hnsw.M <= 0) return Status::InvalidArgument("hnsw.M must be positive");
  if (hnsw.ef_construction <= 0) {
    return Status::InvalidArgument("hnsw.ef_construction must be positive");
  }
  if (batch_percent <= 0 || batch_percent > 100) {
    return Status::InvalidArgument("batch_percent must be in (0, 100]");
  }
  if (step_size <= 0.0) {
    return Status::InvalidArgument("step_size must be positive");
  }
  if (default_beam <= 0) {
    return Status::InvalidArgument("default_beam must be positive");
  }
  if (neighborhood_knn <= 0) {
    return Status::InvalidArgument("neighborhood_knn must be positive");
  }
  if (neighborhood_coverage <= 0.0 || neighborhood_coverage > 1.0) {
    return Status::InvalidArgument("neighborhood_coverage must be in (0, 1]");
  }
  if (init.samples <= 0) {
    return Status::InvalidArgument("init.samples must be positive");
  }
  if (scorer.gnn_dims.empty()) {
    return Status::InvalidArgument("scorer.gnn_dims must not be empty");
  }
  for (int32_t d : scorer.gnn_dims) {
    if (d <= 0) return Status::InvalidArgument("gnn dims must be positive");
  }
  if (scorer.mlp_hidden <= 0) {
    return Status::InvalidArgument("scorer.mlp_hidden must be positive");
  }
  if (embedding.dim <= 0) {
    return Status::InvalidArgument("embedding.dim must be positive");
  }
  LAN_RETURN_NOT_OK(cache.Validate());
  return Status::OK();
}

Status LanIndex::Build(const GraphDatabase* db) {
  LAN_RETURN_NOT_OK(config_.Validate());
  if (db == nullptr || db->empty()) {
    return Status::InvalidArgument("Build: empty database");
  }
  db_ = db;
  mutable_db_ = nullptr;
  LAN_LOG(Info) << "LanIndex::Build: " << db_->size() << " graphs ("
                << db_->name() << ")";

  Timer timer;
  HnswIndex hnsw = HnswIndex::Build(*db_, kBuildGed, config_.hnsw,
                                    pool_.get());
  LAN_LOG(Info) << "  PG built in " << timer.ElapsedSeconds() << "s, avg deg "
                << hnsw.BaseLayer().AverageDegree();
  FinishBuild(std::move(hnsw));
  return Status::OK();
}

Status LanIndex::Build(GraphDatabase* db) {
  LAN_RETURN_NOT_OK(Build(static_cast<const GraphDatabase*>(db)));
  mutable_db_ = db;
  return Status::OK();
}

void LanIndex::FinishBuild(HnswIndex hnsw) {
  // Precompute the compressed GNN-graph of every database graph (offline,
  // Sec. VI-C: a one-off cost amortized over all queries).
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  auto cgs = std::make_shared<std::vector<CompressedGnnGraph>>(
      static_cast<size_t>(db_->size()));
  pool_->ParallelFor(static_cast<size_t>(db_->size()), [&](size_t i) {
    (*cgs)[i] = BuildCompressedGnnGraph(
        db_->Get(static_cast<GraphId>(i)), layers);
  });

  // Whole-graph embeddings + KMeans clusters for the optimized M_nh.
  EmbeddingOptions embedding = config_.embedding;
  embedding.num_labels = db_->num_labels();
  config_.embedding = embedding;
  auto embeddings =
      std::make_shared<EmbeddingMatrix>(EmbedDatabase(*db_, embedding));
  const int num_clusters =
      config_.num_clusters > 0
          ? config_.num_clusters
          : std::max(1, static_cast<int>(std::sqrt(
                            static_cast<double>(db_->size()))));
  Rng rng(config_.seed);
  auto clusters = std::make_shared<KMeansResult>(
      KMeans(*embeddings, num_clusters, config_.kmeans_iterations, &rng));

  auto snap = std::make_shared<IndexSnapshot>();
  snap->num_graphs = db_->size();
  snap->live_count = snap->num_graphs;
  snap->hnsw = std::make_shared<const HnswIndex>(std::move(hnsw));
  snap->live = std::make_shared<const std::vector<uint8_t>>(
      static_cast<size_t>(db_->size()), uint8_t{1});
  snap->cgs = std::move(cgs);
  snap->embeddings = std::move(embeddings);
  snap->clusters = std::move(clusters);
  Publish(std::move(snap));
  FinishSetup(db_->size(), /*inserted_since_build=*/0);
}

void LanIndex::FinishSetup(GraphId built_size,
                           uint64_t inserted_since_build) {
  // Online PG inserts continue a level-draw stream that is deterministic
  // given the built size; an opened snapshot skips the draws its inserts
  // already took, so it inserts exactly like the index that saved it.
  insert_rng_ = Rng(config_.hnsw.seed ^
                    (0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(built_size)));
  HnswIndex::SkipInsertLevels(&insert_rng_, config_.hnsw,
                              inserted_since_build);

  if (config_.cache.enabled) {
    result_cache_ = std::make_unique<ResultCache>(config_.cache);
  }
  built_ = true;
}

void LanIndex::Publish(std::shared_ptr<const IndexSnapshot> snap) {
  std::atomic_store_explicit(&snapshot_, std::move(snap),
                             std::memory_order_release);
}

std::shared_ptr<const IndexSnapshot> LanIndex::Snapshot() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

Result<GraphId> LanIndex::Insert(Graph graph) {
  if (!built_) return Status::FailedPrecondition("Insert before Build");
  if (mutable_db_ == nullptr) {
    return Status::FailedPrecondition(
        "Insert needs a mutable database: Build(GraphDatabase*)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();

  LAN_ASSIGN_OR_RETURN(const GraphId id, mutable_db_->Add(std::move(graph)));
  const Graph& added = db_->Get(id);

  // Derived per-graph state; models stay fixed (see header).
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  auto cgs = std::make_shared<std::vector<CompressedGnnGraph>>(*snap->cgs);
  cgs->push_back(BuildCompressedGnnGraph(added, layers));
  auto embeddings = std::make_shared<EmbeddingMatrix>(*snap->embeddings);
  embeddings->AppendRow(EmbedGraph(added, config_.embedding));
  auto clusters = std::make_shared<KMeansResult>(*snap->clusters);
  const int32_t c = NearestCentroid(clusters->centroids,
                                    embeddings->Row(embeddings->rows() - 1));
  clusters->assignment.push_back(c);
  clusters->members[static_cast<size_t>(c)].push_back(id);

  // Copy-on-write PG extension: concurrent searches keep routing on the
  // previous epoch's topology. The build-protocol GED is not symmetric;
  // the pair is evaluated as d(a, b) in the order HnswIndex asks for it.
  auto hnsw = std::make_shared<HnswIndex>(*snap->hnsw);
  const auto pair_distance = [this](GraphId a, GraphId b) {
    return kBuildGed
        .Compute(db_->Get(a), db_->Prepared(a), db_->Get(b), db_->Prepared(b))
        .distance;
  };
  LAN_RETURN_NOT_OK(hnsw->Insert(id, pair_distance, config_.hnsw,
                                 &insert_rng_, pool_.get()));

  auto live = std::make_shared<std::vector<uint8_t>>(*snap->live);
  live->push_back(1);

  auto next = std::make_shared<IndexSnapshot>();
  next->epoch = snap->epoch + 1;
  next->num_graphs = snap->num_graphs + 1;
  next->live_count = snap->live_count + 1;
  next->hnsw = std::move(hnsw);
  next->live = std::move(live);
  next->cgs = std::move(cgs);
  next->embeddings = std::move(embeddings);
  next->clusters = std::move(clusters);
  Publish(std::move(next));
  // Answers stored at older epochs can no longer be served (ResultCache);
  // this only frees their memory.
  if (result_cache_ != nullptr) result_cache_->Clear();
  return id;
}

Status LanIndex::Remove(GraphId id) {
  if (!built_) return Status::FailedPrecondition("Remove before Build");
  if (mutable_db_ == nullptr) {
    return Status::FailedPrecondition(
        "Remove needs a mutable database: Build(GraphDatabase*)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();
  if (id < 0 || id >= snap->num_graphs) {
    return Status::OutOfRange("Remove: id outside the index");
  }
  LAN_RETURN_NOT_OK(mutable_db_->Remove(id));

  auto live = std::make_shared<std::vector<uint8_t>>(*snap->live);
  (*live)[static_cast<size_t>(id)] = 0;

  auto next = std::make_shared<IndexSnapshot>(*snap);
  next->epoch = snap->epoch + 1;
  next->live_count = snap->live_count - 1;
  next->live = std::move(live);
  Publish(std::move(next));
  if (result_cache_ != nullptr) result_cache_->Clear();  // as in Insert
  return Status::OK();
}

Status LanIndex::Train(const std::vector<Graph>& train_queries) {
  if (!built_) return Status::FailedPrecondition("Train before Build");
  if (train_queries.empty()) {
    return Status::InvalidArgument("Train: no training queries");
  }
  // Offline phase: trains against the current epoch's state.
  const auto snap = Snapshot();
  const std::vector<CompressedGnnGraph>& db_cgs = *snap->cgs;
  const KMeansResult& clusters = *snap->clusters;
  Timer timer;

  // ---- 1) Ground-truth distance tables for every training query. ----
  std::vector<std::vector<double>> distances(train_queries.size());
  for (size_t qi = 0; qi < train_queries.size(); ++qi) {
    distances[qi] =
        ComputeAllDistances(*db_, train_queries[qi], query_ged_, pool_.get());
  }
  LAN_LOG(Info) << "LanIndex::Train: distance tables for "
                << train_queries.size() << " queries in "
                << timer.ElapsedSeconds() << "s";

  // ---- 2) Calibrate gamma*: N_Q must contain the knn-NNs of Q for
  // `coverage` of the training queries. ----
  const int knn = std::min<int>(config_.neighborhood_knn, db_->size());
  std::vector<double> kth_distances;
  kth_distances.reserve(train_queries.size());
  for (const auto& dist : distances) {
    std::vector<double> sorted = dist;
    std::nth_element(sorted.begin(), sorted.begin() + (knn - 1), sorted.end());
    kth_distances.push_back(sorted[static_cast<size_t>(knn - 1)]);
  }
  gamma_star_ =
      Percentile(kth_distances, 100.0 * config_.neighborhood_coverage);
  LAN_LOG(Info) << "  gamma* = " << gamma_star_ << " (knn=" << knn << ")";

  // ---- 3) Query CGs (shared by M_rk / M_nh training). ----
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  std::vector<CompressedGnnGraph> query_cgs(train_queries.size());
  pool_->ParallelFor(train_queries.size(), [&](size_t i) {
    query_cgs[i] = BuildCompressedGnnGraph(train_queries[i], layers);
  });

  Rng rng(config_.seed + 1);
  MakeModels(db_->num_labels());

  // ---- 4) M_rk. ----
  {
    std::vector<RankExample> examples =
        BuildRankExamples(snap->hnsw->BaseLayer(), distances, gamma_star_,
                          config_.batch_percent, config_.max_rank_examples,
                          &rng);
    // 80/20 train/validation split; best epoch on validation wins.
    const size_t valid_count = examples.size() / 5;
    std::vector<RankExample> validation(
        examples.end() - static_cast<ptrdiff_t>(valid_count), examples.end());
    examples.resize(examples.size() - valid_count);
    Timer t;
    rank_model_->Train(db_cgs, query_cgs, examples, validation);
    rank_model_->PrecomputeContexts(db_cgs);
    LAN_LOG(Info) << "  M_rk trained on " << examples.size() << " triples in "
                  << t.ElapsedSeconds() << "s";
  }

  // ---- 5) M_nh. ----
  {
    std::vector<NeighborhoodExample> examples = BuildNeighborhoodExamples(
        distances, gamma_star_, config_.nh.negative_ratio,
        config_.max_nh_examples, &rng);
    const size_t valid_count = examples.size() / 5;
    std::vector<NeighborhoodExample> validation(
        examples.end() - static_cast<ptrdiff_t>(valid_count), examples.end());
    examples.resize(examples.size() - valid_count);
    Timer t;
    nh_model_->Train(db_cgs, query_cgs, examples, validation);
    LAN_LOG(Info) << "  M_nh trained on " << examples.size() << " pairs in "
                  << t.ElapsedSeconds() << "s";
  }

  // ---- 6) M_c over cluster intersection counts. ----
  {
    std::vector<std::vector<float>> query_embeddings;
    query_embeddings.reserve(train_queries.size());
    for (const Graph& q : train_queries) {
      query_embeddings.push_back(EmbedGraph(q, config_.embedding));
    }
    std::vector<std::vector<float>> counts(
        train_queries.size(),
        std::vector<float>(static_cast<size_t>(clusters.centroids.rows()),
                           0.0f));
    for (size_t qi = 0; qi < train_queries.size(); ++qi) {
      for (size_t g = 0; g < distances[qi].size(); ++g) {
        if (distances[qi][g] <= gamma_star_) {
          ++counts[qi][static_cast<size_t>(clusters.assignment[g])];
        }
      }
    }
    cluster_model_->Train(query_embeddings, clusters.centroids, counts);
  }

  // New models change answers without moving the epoch, so the stored
  // ones must go.
  if (result_cache_ != nullptr) result_cache_->Clear();

  trained_ = true;
  LAN_LOG(Info) << "LanIndex::Train done in " << timer.ElapsedSeconds() << "s";
  return Status::OK();
}

void LanIndex::MakeModels(int32_t num_labels) {
  rank_model_ = std::make_unique<NeighborRankModel>(
      num_labels, config_.scorer, config_.batch_percent, config_.rank);
  nh_model_ = std::make_unique<NeighborhoodModel>(num_labels, config_.scorer,
                                                  config_.nh);
  // M_c's features are the query's embedding and a centroid.
  cluster_model_ = std::make_unique<ClusterModel>(
      static_cast<int32_t>(2 * config_.embedding.dim), config_.cluster);
}

QueryHistograms::QueryHistograms(MetricsRegistry* registry)
    : registry_(registry) {
  if (registry == nullptr) return;
  queries_ = registry->Counter("queries");
  errors_ = registry->Counter("query_errors");
  latency_ = registry->Histogram("query_latency_seconds",
                                 MetricsRegistry::LatencyBounds());
  const auto bounds = MetricsRegistry::CountBounds();
  ndc_ = registry->Histogram("query_ndc", bounds);
  routing_steps_ = registry->Histogram("query_routing_steps", bounds);
  model_inferences_ = registry->Histogram("query_model_inferences", bounds);
  cross_encodings_ = registry->Histogram("query_cross_encodings", bounds);
  cache_hits_ = registry->Histogram("query_cache_hits", bounds);
}

void QueryHistograms::Observe(const SearchResult& result,
                              double seconds) const {
  if (registry_ == nullptr) return;
  const SearchStats& stats = result.stats;
  registry_->Increment(queries_);
  if (!result.status.ok()) registry_->Increment(errors_);
  registry_->Observe(latency_, seconds);
  registry_->Observe(ndc_, static_cast<double>(stats.ndc));
  registry_->Observe(routing_steps_, static_cast<double>(stats.routing_steps));
  registry_->Observe(model_inferences_,
                     static_cast<double>(stats.model_inferences));
  registry_->Observe(cross_encodings_,
                     static_cast<double>(stats.cross_encodings));
  registry_->Observe(cache_hits_, static_cast<double>(stats.cache_hits));
}

BatchSearchResult LanIndex::SearchBatch(const std::vector<Graph>& queries,
                                        const SearchOptions& options) const {
  BatchSearchResult out;
  out.results.resize(queries.size());

  // Per-call registry: workers fill per-thread shards without contending,
  // merged once below.
  MetricsRegistry registry;
  const QueryHistograms query_hists(&registry);
  const GaugeId live_gauge = registry.Gauge("index_live_size");
  const GaugeId tombstone_gauge = registry.Gauge("index_tombstones");
  const GaugeId epoch_gauge = registry.Gauge("index_epoch");
  // stage.<name>_seconds histograms, filled only when profiling is on.
  StageHistograms stage_hists;
  if (options.profile) stage_hists.Register(&registry);
  // cache.* counters are scoped to this batch: delta against the cache's
  // lifetime totals captured now.
  const ShardCacheStats cache_before =
      result_cache_ != nullptr ? result_cache_->Stats() : ShardCacheStats{};
  if (const auto snap = Snapshot(); snap != nullptr) {
    registry.SetGauge(live_gauge, static_cast<double>(snap->live_count));
    registry.SetGauge(tombstone_gauge,
                      static_cast<double>(snap->num_graphs - snap->live_count));
    registry.SetGauge(epoch_gauge, static_cast<double>(snap->epoch));
  }

  SearchOptions base_options = options;
  base_options.trace = nullptr;  // a shared sink would interleave workers
  base_options.trace_factory = nullptr;
  const auto run_query = [&](size_t i) {
    SearchOptions per_query = base_options;
    if (options.trace_factory) {
      per_query.trace = options.trace_factory(i);  // private per-query sink
    }
    Timer timer;
    out.results[i] = Search(queries[i], per_query);
    const SearchResult& r = out.results[i];
    query_hists.Observe(r, timer.ElapsedSeconds());
    if (options.profile) stage_hists.Observe(r.stats.stages);
  };
  pool_->ParallelFor(queries.size(), run_query);

  for (const SearchResult& r : out.results) {
    out.stats.totals.Merge(r.stats);
  }
  if (result_cache_ != nullptr) {
    result_cache_->AppendMetrics(&registry, &cache_before);
  }
  out.stats.metrics = registry.Snapshot();
  return out;
}

LazyQueryCg LanIndex::QueryCg(const Graph& query) const {
  return LazyQueryCg(&query,
                     static_cast<int>(config_.scorer.gnn_dims.size()));
}

Status LanIndex::Ready(const SearchOptions& options) const {
  if (!built_) return Status::FailedPrecondition("Search before Build()");
  if (options.k <= 0) {
    return Status::InvalidArgument("SearchOptions.k must be positive");
  }
  const bool needs_models = (options.routing == RoutingMethod::kLanRoute) ||
                            (options.init == InitMethod::kLanIs);
  if (needs_models && !trained_) {
    return Status::FailedPrecondition(
        std::string(RoutingMethodName(options.routing)) + "/" +
        InitMethodName(options.init) +
        " needs the learned models: call Train() or open a trained "
        "snapshot first");
  }
  return Status::OK();
}

SearchResult LanIndex::Search(const Graph& query,
                              const SearchOptions& options) const {
  SearchResult out;
  SearchInto(query, options, &out);
  return out;
}

void LanIndex::SearchInto(const Graph& query, const SearchOptions& options,
                          SearchResult* out_ptr) const {
  SearchResult& out = *out_ptr;
  out.results.clear();
  out.stats = SearchStats{};
  out.epoch = 0;
  out.status = Ready(options);
  // An empty graph or an out-of-alphabet label would abort the learned
  // paths (compressed GNN graph, one-hot/embedding tables); reject them on
  // every path alike.
  if (out.status.ok()) out.status = db_->CheckGraph(query);
  if (!out.status.ok()) return;

  // Stack-allocated stage clock; a null pointer (profiling off) makes
  // every StageSpan below a single never-taken branch, like TraceRecord.
  StageProfile profile_storage;
  StageProfile* const profile = options.profile ? &profile_storage : nullptr;

  // Pin this query's epoch: everything below reads `snap`, never the
  // index members, so a concurrent Insert/Remove publishing a successor
  // snapshot cannot be observed mid-query.
  std::shared_ptr<const IndexSnapshot> snap;
  {
    StageSpan span(profile, Stage::kSnapshotPin);
    snap = Snapshot();
  }
  out.epoch = snap->epoch;
  const std::vector<uint8_t>* live = snap->live.get();

  const int k = options.k;
  const int beam = options.beam > 0 ? options.beam : config_.default_beam;
  const RoutingMethod routing = options.routing;
  const InitMethod init = options.init;
  TraceSink* sink = options.trace;
  if (sink != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kQueryBegin;
    event.value = static_cast<double>(k);
    event.aux = static_cast<double>(beam);
    event.detail = RoutingMethodName(routing);
    event.detail2 = InitMethodName(init);
    sink->Record(event);
    TraceEvent pinned;
    pinned.type = TraceEventType::kEpochPinned;
    pinned.value = static_cast<double>(snap->epoch);
    pinned.aux = static_cast<double>(snap->live_count);
    sink->Record(pinned);
  }
  const auto finish = [&] {
    if (profile != nullptr) out.stats.stages = profile->breakdown();
    if (sink != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kQueryEnd;
      event.id =
          out.results.empty() ? kInvalidGraphId : out.results.front().first;
      event.value = static_cast<double>(out.stats.ndc);
      event.aux = static_cast<double>(out.stats.routing_steps);
      sink->Record(event);
    }
  };

  // The answer cache: one entry per (query content, every option the
  // answer depends on), served only at the epoch it was computed at.
  CacheKey128 cache_key;
  bool hit = false;
  if (result_cache_ != nullptr) {
    StageSpan span(profile, Stage::kCacheLookup);
    cache_key.hi = query.ContentHash() ^
                   MixCacheHash(static_cast<uint64_t>(routing) << 8 |
                                static_cast<uint64_t>(init));
    cache_key.lo = static_cast<uint64_t>(static_cast<uint32_t>(k)) << 32 |
                   static_cast<uint32_t>(beam);
    hit = result_cache_->Find(cache_key, snap->epoch, &out.results);
  }
  if (hit) {
    out.stats.cache_hits = 1;
    if (sink != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kCacheHit;
      event.value = static_cast<double>(out.results.size());
      event.detail = "answer";
      sink->Record(event);
    }
    finish();
    return;
  }

  // Per-query working state: dense visited/cache arrays, candidate pool
  // storage, and result buffers, reused across the thread's queries.
  ScratchLease lease(nullptr);
  SearchScratch* scratch = lease.get();

  DistanceOracle oracle(db_, &query, &query_ged_, &out.stats, sink, scratch);
  oracle.set_profile(profile);
  // The GED tiers and cross-encoding chunks fan out on the resident pool;
  // under SearchBatch this runs on a pool worker and they run inline.
  oracle.set_pool(pool_.get());

  // Deterministic per-query randomness.
  uint64_t qhash = config_.seed;
  qhash = qhash * 1000003 + static_cast<uint64_t>(query.NumNodes());
  qhash = qhash * 1000003 + static_cast<uint64_t>(query.NumEdges());
  for (Label l : query.labels()) {
    qhash = qhash * 31 + static_cast<uint64_t>(l) + 17;
  }
  Rng rng(qhash);

  // Query CG for the learned components, built by the first model that
  // needs it inside its kModelInference span.
  LazyQueryCg query_cg = QueryCg(query);

  // ---- Initial node. ----
  GraphId start = kInvalidGraphId;
  {
    StageSpan init_span(profile, Stage::kInitSelection);
    switch (init) {
      case InitMethod::kLanIs: {
        LanInitialSelector selector(nh_model_.get(), cluster_model_.get(),
                                    snap->clusters.get(), snap->cgs.get(),
                                    &query_cg, &config_.embedding,
                                    config_.use_compressed_gnn, config_.init);
        selector.set_scratch(scratch);
        start = selector.Select(&oracle, &rng);
        break;
      }
      case InitMethod::kHnswIs:
        start = snap->hnsw->SelectInitialNode(&oracle);
        break;
      case InitMethod::kRandomIs:
        start = static_cast<GraphId>(
            rng.NextBounded(static_cast<uint64_t>(snap->num_graphs)));
        break;
    }
  }

  // ---- Routing. ----
  const ProximityGraph& base = snap->hnsw->BaseLayer();
  RoutingResult& routed = scratch->routing;
  switch (routing) {
    case RoutingMethod::kLanRoute: {
      LearnedNeighborRanker ranker(rank_model_.get(), snap->cgs.get(),
                                   &query_cg, &oracle, gamma_star_,
                                   config_.use_compressed_gnn);
      NpRouteOptions opts;
      opts.beam_size = beam;
      opts.k = k;
      opts.step_size = config_.step_size;
      opts.live = live;
      NpRouteInto(base, &oracle, &ranker, start, opts, scratch, &routed);
      break;
    }
    case RoutingMethod::kOracleRoute: {
      OracleRanker ranker(db_, &query_ged_, config_.batch_percent);
      NpRouteOptions opts;
      opts.beam_size = beam;
      opts.k = k;
      opts.step_size = config_.step_size;
      opts.live = live;
      NpRouteInto(base, &oracle, &ranker, start, opts, scratch, &routed);
      break;
    }
    case RoutingMethod::kBaselineRoute:
      BeamSearchRouteInto(base, &oracle, start, beam, k, live, scratch,
                          &routed);
      break;
  }

  out.results.assign(routed.results.begin(), routed.results.end());
  if (result_cache_ != nullptr) {
    StageSpan span(profile, Stage::kCacheLookup);
    result_cache_->Put(cache_key, snap->epoch, out.results);
  }
  finish();
}

}  // namespace lan
